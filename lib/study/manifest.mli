(** Run manifest: a read-only view of what a reproduction run did.

    {!Metrics_registry} is the run's only store of timings and counters;
    the manifest adds the run's identity and per-experiment totals and
    reads everything else back from one registry snapshot at emission
    time:
    - [stages]: one row per {!Trace_log.with_span} name, from the exact
      count and sum of its [span.<name>] histogram, in name order.  The
      pipeline's top-level spans are [trace_capture] ({!Context.create}),
      [levels_build] ({!Levels.build} on memo misses) and [simulate]
      (each replay of {!Runner.simulate} and {!Runner.simulate_batch}).
      Spans are timed whether or not the timeline is recorded;
    - [sim_cache]: the [sim_cache.*] counters ({!Sim_cache});
    - [layout]: the per-stage [layout_cache.<stage>.*] counters and
      build-time histograms ({!Layout_cache.stage_stats});
    - [batch]: the [batch.*] counters that {!Runner.simulate_batch} bumps.

    All counts are whole-process totals.  [icache-opt repro --format
    json] and the bench harness emit the manifest as JSON so the perf
    trajectory is recorded run over run.

    JSON schema (see DESIGN.md for a worked example):
    {v
    { "schema_version": 4,
      "run": { "spec_seed": int, "spec_digest": hex, "words": int,
               "seed": int, "jobs": int, "context_key": hex,
               "gc": { "minor_collections": int, "major_collections": int,
                       "compactions": int, "minor_words": float,
                       "promoted_words": float, "major_words": float,
                       "heap_words": int, "top_heap_words": int } } | null,
      "stages": [ { "name": string, "count": int, "seconds": float } ],
      "sim_cache": { "hits": int, "misses": int, "lookups": int,
                     "hit_rate": float },
      "layout": { "stages": [ { "name": string, "hits": int,
                                "misses": int, "lookups": int,
                                "seconds": float } ],
                  "hit_rate": float },
      "batch": { "calls": int, "members": int, "cache_hits": int,
                 "simulated": int, "replay_passes": int,
                 "passes_saved": int, "events_replayed": int,
                 "events_saved": int },
      "experiments": [ { "id": string, "seconds": float } ],
      "metrics": { "counters": {..}, "gauges": {..}, "histograms": {..} } }
    v}

    [run.gc] samples [Gc.quick_stat] at emission time, and [metrics]
    embeds the registry snapshot the other objects were read from (see
    {!Metrics_registry.to_json} for its shape).  The [batch] object
    counts sweep members requested, served from {!Sim_cache} and
    simulated, and the (workload x member) replay passes and exec events
    the fused path spent versus what per-member replay would have cost.

    Invariants (checked by [icache-opt validate] and the test suite):
    every [seconds] and every [count] is non-negative,
    [sim_cache.hits + sim_cache.misses = sim_cache.lookups], each layout
    stage's [hits + misses = lookups], and
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

val record_experiment : id:string -> seconds:float -> unit
(** Append one experiment's wall-clock total (in completion order). *)

val to_json : unit -> Json.t
(** Snapshot the manifest from the registry now. *)
