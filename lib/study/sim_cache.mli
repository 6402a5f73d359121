(** Content-addressed memo table for trace-replay results.

    The ~30 experiments of the evaluation repeatedly simulate identical
    (layout, cache geometry) pairs — Figures 12, 13 and 14 alone replay the
    same five layout levels through the same 8 KB cache.  This table keys a
    whole per-workload [run array] on everything the simulation depends on:
    the trace identity (the context's digest over spec/words/seed), the
    per-workload layout digests ({!Program_layout.digest}), the cache
    geometry, the warm-up fraction and the attribution flag.  Equal keys
    provably replay to equal results, so {!Runner.simulate_config} consults
    this table and the experiment suite stops re-simulating.

    Entries and lookups deep-copy counters and miss arrays, so callers may
    freely mutate what they get back.  The table is domain-safe (a single
    process-wide mutex) and process-global.

    The lookup counts live only in {!Metrics_registry}, as the counters
    [sim_cache.hits], [sim_cache.misses] and [sim_cache.lookups].  They
    are whole-process totals: {!clear} drops entries but never rewinds
    them, so callers that want one phase's counts take before/after
    deltas of {!hits} and {!misses}. *)

type entry = {
  counters : Counters.t;
  os_block_misses : int array;
}
(** One workload's simulation result (mirrors [Runner.run], which lives
    above this module in the dependency order). *)

type key

val key :
  context:string ->
  layouts:string array ->
  config:Config.t ->
  warmup_fraction:float ->
  attribute_os:bool ->
  key
(** Build the content address.  [context] is the trace identity (see
    [Context.key]); [layouts] the per-workload placement digests in
    workload order.  The cache geometry is folded in via its runtime
    representation, so every field — size, associativity, line size and
    replacement policy (including a [Random] policy's seed) — separates
    keys. *)

val find : key -> entry array option
(** Deep copy of the cached runs, or [None].  Counts one hit or miss. *)

val add : key -> entry array -> unit
(** Store a deep copy.  First writer wins; duplicate adds are ignored (the
    results are equal by construction). *)

val hits : unit -> int
(** Registry counter [sim_cache.hits]. *)

val misses : unit -> int
(** Registry counter [sim_cache.misses]. *)

val hit_rate : unit -> float
(** [hits / (hits + misses)]; 0 when no lookups have happened. *)

val clear : unit -> unit
(** Drop all entries; the counters keep counting (tests). *)
