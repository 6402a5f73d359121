(** Registry of every reproduced table and figure. *)

type t = {
  id : string;  (** e.g. "table1", "fig12". *)
  title : string;
  compute : Context.t -> Result.report;  (** The typed result. *)
}

val all : t list
(** In paper order. *)

val find : string -> t
(** @raise Not_found on an unknown id. *)

val compute : t -> Context.t -> Result.report
(** [e.compute] inside the span [experiment.<id>], so the experiment's
    wall-clock is the run {!Manifest}'s stage row of that name (and one
    span on the trace timeline). *)

val run : t -> Context.t -> unit
(** {!compute} rendered as text to stdout — the classic transcript. *)
