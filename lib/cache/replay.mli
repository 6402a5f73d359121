(** Replaying a captured block-level trace through one or more cache
    systems under a given code placement.

    Feeding several systems through one call replays the trace {e once}:
    every decoded event fans out to each system in array order, so a
    whole sweep of cache configurations shares a single trace decode and
    code-map resolution.  Systems are mutually independent, so the
    result for each is bit-identical to a solo replay. *)

type code_map = {
  addr : int array array;  (** Per image: block id -> byte address. *)
  bytes : int array array;  (** Per image: block id -> block size. *)
}

val run : trace:Trace.t -> map:code_map -> systems:System.t array -> unit
(** Feed every execution event to every system.  Systems accumulate
    counters; call {!System.reset} first to reuse one. *)

val default_warmup_fraction : float
(** 0.2: the share of a trace's executions that only warms the cache. *)

val run_range :
  trace:Trace.t -> map:code_map -> systems:System.t array ->
  warmup_fraction:float -> unit
(** Like {!run} but resets all counters after the first
    [warmup_fraction] of the trace's {e execution} events
    ({!Trace.exec_count}; invocation markers neither count nor advance
    the warm-up), so reported numbers exclude the initial cold start (the
    paper's traces are mid-execution snapshots with negligible first-time
    misses).  This is the only place a warm-up threshold is computed. *)
