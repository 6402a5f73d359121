(** Execution profiles: per-block, per-arc and per-routine weights gathered
    from the trace engine, the input to every placement algorithm of the
    paper (node and arc weights of the flow graph G, Section 4). *)

type t = {
  block : float array;  (** Executions per {!Block.id}. *)
  arc : float array;  (** Traversals per {!Arc.id}. *)
  mutable total_blocks : float;  (** Sum of [block]. *)
  mutable invocations : float;
      (** OS invocations observed while profiling (0 for application
          images and hand-built profiles).  Scaled along with the counts
          by {!scale_to} and {!average}. *)
}

val empty : Graph.t -> t

val sinks : program:Program.t -> t array * Engine.sink
(** The per-image profiles (index 0 = OS) and an engine sink that fills
    them event by event, for callers that profile without keeping a
    trace.  Composed with {!Engine.trace_sink} it is the reference the
    tests check {!capture} against. *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * Engine.stats * t array
(** {!Engine.run} recording the trace and one profile per image (index 0 =
    OS) in the same pass, through one fused sink that allocates nothing
    per event; [total_blocks] and [invocations] are set after the run.
    Equal, bit for bit, to {!Engine.trace_sink} composed with {!sinks}. *)

val scale_to : t -> float -> t
(** Copy, rescaled so [total_blocks] equals the given value. *)

val average : t list -> t
(** Equal-weight average: each profile is first normalized to the same
    total (the paper builds layouts from the average of all workload
    profiles).  @raise Invalid_argument on the empty list or mismatched
    shapes. *)

val accumulate : t -> t -> unit
(** [accumulate dst src] adds [src]'s raw counts into [dst]. *)

(** {1 Derived quantities} *)

val executed : t -> Block.id -> bool

val block_fraction : t -> Block.id -> float
(** Block weight over total block weight (compared against ExecThresh). *)

val arc_probability : t -> Graph.t -> Arc.id -> float
(** Arc weight over its source block's weight (compared against
    BranchThresh); 0 when the source never executed. *)

val routine_invocations : t -> Graph.t -> float array
(** Invocations of each routine: executions of its entry block minus
    loop-back-edge re-entries. *)

val executed_routine_count : t -> Graph.t -> int
val executed_block_count : t -> int
val executed_bytes : t -> Graph.t -> int

val dynamic_words : t -> Graph.t -> float
(** Total instruction words implied by the block counts. *)
