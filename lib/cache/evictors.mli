(** Who last evicted each cache line — the memory behind the paper's miss
    taxonomy.  A miss on a line never evicted is cold; otherwise it is
    self-interference when the last evictor was the missing domain (OS or
    application) and cross-interference when it was the other one.

    One growable byte per line number, shared by every cache organization
    ({!Sim} and the victim cache in {!System}), so recording an eviction
    and classifying a miss are an array store and an array load. *)

type t

val create : unit -> t

val record : t -> int -> os:bool -> unit
(** [record t line ~os] notes that [line] was just evicted by the OS
    ([os = true]) or an application. *)

val classify : t -> Counters.t -> os:bool -> int -> int
(** [classify t c ~os line] counts a miss on [line] by the given domain
    in [c] and returns its kind: 0 = cold, 1 = self-interference,
    2 = cross-interference. *)

val clear : t -> unit
(** Forget every eviction (all lines cold again). *)
