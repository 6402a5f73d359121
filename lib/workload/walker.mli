(** Stochastic execution of a flow graph.

    A walker follows a {!Graph.t} from a start block, emitting executed
    basic blocks one at a time.  At a block that ends in a call it descends
    into the callee's entry; at a callee exit block it returns to the
    caller block's outgoing arcs.  Multi-arc choices are made from the
    intrinsic arc probabilities, except at blocks whose [override] entry
    names an arc (used for the seed dispatch blocks, whose handler mix is
    workload-specific).

    Walkers are pausable: the engine interleaves an application walker with
    OS invocations by stepping it a bounded number of words at a time.  A
    step allocates nothing. *)

type t

val create :
  graph:Graph.t -> arc_prob:float array -> prng:Prng.t ->
  ?override:int array -> ?on_arc:(Arc.id -> unit) -> unit -> t
(** [override] has one entry per block: an arc id the walk takes at that
    block instead of drawing one, or -1 to draw.  The walker reads it at
    every choice, so its owner may rewrite it between steps (default: all
    -1).  [on_arc] is invoked for every intra-routine arc the walk takes
    (used by profiling; call/return transitions are visible as block
    executions).  @raise Invalid_argument if [override]'s length is not
    the graph's block count. *)

val start : t -> Block.id -> unit
(** Begin a new walk at the given block, discarding any previous state. *)

val active : t -> bool
(** True while the current walk has not returned from its start frame. *)

val step : t -> Block.id
(** Emit the next executed block, or -1 if the walk has completed. *)

val depth : t -> int
(** Current call-stack depth (testing aid). *)
