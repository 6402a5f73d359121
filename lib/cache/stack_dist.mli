(** LRU stack-distance (reuse-distance) analysis over a line-granular
    reference stream.

    One pass yields the miss count of {e every} fully-associative LRU
    capacity at once: a reference misses in a cache of [C] lines iff at
    least [C] distinct lines were touched since the previous reference to
    its line.  Since code placement cannot change a fully-associative
    curve, the gap between this curve and a set-associative simulation of
    the same trace is exactly the conflict-miss mass that the paper's
    layouts attack.

    Distances are binned with power-of-two edges, so {!misses_at} is
    exact at power-of-two capacities (others round down).  Maintained with a
    Fenwick tree over a window of recent reference slots that is compacted
    when it fills and kept at most about four times the distinct lines
    seen: O(log live lines) amortized per reference, independent of the
    trace length, and allocation-free once the window has grown. *)

type t

val create : ?line:int -> unit -> t
(** [line] is the line size in bytes (default 32, power of two). *)

val access : t -> addr:int -> bytes:int -> unit
(** Record the lines spanned by one block fetch. *)

val refs : t -> int
(** Line references recorded. *)

val cold : t -> int
(** First-touch references (miss at every capacity). *)

val misses_at : t -> lines:int -> int
(** Misses of a fully-associative LRU cache with [lines] lines.
    @raise Invalid_argument if [lines < 1]. *)

val curve : t -> max_lines:int -> (int * int) list
(** [(capacity in lines, misses)] at every power of two up to
    [max_lines]. *)

val from_trace :
  trace:Trace.t -> map:Replay.code_map -> ?line:int -> ?os_only:bool -> unit -> t
(** Feed a captured block trace through the analysis under a given code
    placement ([os_only] restricts to OS fetches). *)
