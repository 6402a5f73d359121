(** Trace-replay driver: simulates cache systems for every workload under
    given per-workload layouts.

    A warm-up prefix of each trace fills the cache before counters start,
    matching the paper's mid-execution hardware traces ("misses caused by
    first-time references are negligible").

    Workloads replay concurrently on up to [jobs] domains (default
    {!Parallel.default_jobs}, i.e. [--jobs]/[ICACHE_JOBS] or the core
    count).  Every domain owns a fresh {!System.t} and results merge in
    workload order, so counters and per-block miss arrays are bit-identical
    across job counts — [test/test_parallel.ml] asserts this. *)

type run = {
  counters : Counters.t;
  os_block_misses : int array;  (** Per OS block; empty unless requested. *)
}

val simulate :
  Context.t -> layouts:Program_layout.t array ->
  system:(unit -> System.t) ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array
(** One run per workload.  [system] builds a fresh cache system per
    workload (it is called from worker domains, so it must not capture
    shared mutable state).  Default warm-up: the first 20% of events. *)

val simulate_config :
  Context.t -> layouts:Program_layout.t array -> config:Config.t ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array
(** {!simulate} with a unified cache of the given geometry, memoized in
    {!Sim_cache}: re-simulating an identical (trace identity, layout
    digests, geometry, attribution) combination returns the cached runs
    (as fresh copies) instead of replaying. *)

val simulate_batch :
  Context.t -> members:(Program_layout.t array * Config.t) array ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array array
(** Fused sweep: simulate every (per-workload layouts, unified cache
    geometry) member of a configuration grid, replaying each workload
    trace {e once per distinct placement} while feeding all of that
    placement's uncached members simultaneously ({!Replay.run_range} with
    several systems).  Result [.(m).(i)] is member [m]'s run on workload
    [i], bit-identical to [simulate_config ~layouts ~config] called per
    member — same counters, same attribution arrays — just without the
    redundant trace decodes.

    Every member consults {!Sim_cache} first (hits skip replay entirely)
    and every simulated member is published to it, so batched and
    per-config call sites share one memo.  Effectiveness (members served
    from cache, replay passes and exec events saved) is counted in the
    [batch.*] registry counters, which the run manifest's [batch] object
    reads back. *)

val total : run array -> Counters.t
(** Sum of all workloads' counters. *)
