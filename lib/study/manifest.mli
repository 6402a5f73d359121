(** Run manifest: a read-only view of what a reproduction run did.

    {!Metrics_registry} is the run's only store of timings and counters;
    the manifest adds the run's identity and reads everything else back
    from one registry snapshot at emission time:
    - [stages]: one row per {!Trace_log.with_span} name, from the exact
      count and sum of its [span.<name>] histogram, in name order.  The
      pipeline's top-level spans are [trace_capture] ({!Context.create}),
      [levels_build] ({!Levels.build} on memo misses), [simulate] (each
      replay of {!Runner.simulate} and {!Runner.simulate_batch}) and
      [experiment.<id>] (each {!Experiments.compute}).  Spans are timed
      whether or not the timeline is recorded;
    - [batch]: the [batch.*] counters that {!Runner.simulate_batch} bumps
      (an unregistered counter reads 0);
    - [metrics]: the registry snapshot itself, including the
      [sim_cache.*] and per-stage [layout_cache.<stage>.*] counters.

    All counts are whole-process totals.  [icache-opt repro --format
    json] and [repro --out DIR] emit the manifest as JSON.

    JSON schema (see DESIGN.md for a worked example):
    {v
    { "schema_version": 5,
      "run": { "spec_seed": int, "spec_digest": hex, "words": int,
               "seed": int, "jobs": int, "context_key": hex,
               "gc": { "minor_collections": int, "major_collections": int,
                       "compactions": int, "minor_words": float,
                       "promoted_words": float, "major_words": float,
                       "heap_words": int, "top_heap_words": int } } | null,
      "stages": [ { "name": string, "count": int, "seconds": float } ],
      "batch": { "calls": int, "members": int, "cache_hits": int,
                 "simulated": int, "replay_passes": int,
                 "passes_saved": int, "events_replayed": int,
                 "events_saved": int },
      "metrics": { "counters": {..}, "gauges": {..}, "histograms": {..} } }
    v}

    [run.gc] samples [Gc.quick_stat] at emission time.  The [batch]
    object counts sweep members requested, served from {!Sim_cache} and
    simulated, and the (workload x member) replay passes and exec events
    the fused path spent versus what per-member replay would have cost.

    Invariants (checked by [icache-opt validate] and the test suite):
    every stage [count >= 1] and [seconds >= 0]; every [metrics] counter
    is [>= 0] and every [X.hits]/[X.misses]/[X.lookups] trio satisfies
    [X.hits + X.misses = X.lookups]; each [batch] field equals its
    [batch.<field>] counter; and
    [batch.cache_hits + batch.simulated <= batch.members]. *)

val set_run :
  spec_seed:int ->
  spec_digest:string ->
  words:int ->
  seed:int ->
  jobs:int ->
  context_key:string ->
  unit
(** Record the run's identity.  First writer wins: the first (usually
    main) context built in the process defines the run; sub-contexts
    built by individual experiments do not overwrite it. *)

val batch_fields : string list
(** The [batch] object's keys, in order; each reads the counter
    [batch.<field>]. *)

val to_json : unit -> Json.t
(** Snapshot the manifest from the registry now. *)
