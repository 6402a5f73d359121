(** Trace-replay driver: simulates cache systems for every workload under
    given per-workload layouts.

    A warm-up prefix of each trace fills the cache before counters start
    ({!Replay.run_range}), matching the paper's mid-execution hardware
    traces ("misses caused by first-time references are negligible").

    Workloads replay concurrently on up to [jobs] domains (default
    {!Parallel.default_jobs}, i.e. [--jobs]/[ICACHE_JOBS] or the core
    count).  Every domain owns a fresh {!System.t} and results merge in
    workload order, so counters and per-block miss arrays are bit-identical
    across job counts — [test/test_parallel.ml] asserts this. *)

type run = Sim_cache.entry = {
  counters : Counters.t;
  os_block_misses : int array;  (** Per OS block; empty unless requested. *)
}
(** One workload's result: the memo's entry type itself, so runs go into
    and come out of {!Sim_cache} without conversion. *)

(** Two entry points share one replay pass (trace, warm-up via
    {!Replay.run_range}, attribution, span and timing): {!simulate_batch}
    is the memoized, fused path for unified caches; {!simulate} is the
    unmemoized reference. *)

val simulate :
  Context.t -> layouts:Program_layout.t array ->
  system:(unit -> System.t) ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array
(** One run per workload.  [system] builds a fresh cache system per
    workload (it is called from worker domains, so it must not capture
    shared mutable state).  Default warm-up:
    {!Replay.default_warmup_fraction}.

    Never memoized: an arbitrary [system] closure cannot be keyed.  It
    stays for two reasons: it is the only path for split, reserved and
    victim organizations, and with [System.unified] it is the
    independent oracle that tests and the benchmark's check compare
    {!simulate_batch} against. *)

val simulate_batch :
  Context.t -> members:(Program_layout.t array * Config.t) array ->
  ?attribute_os:bool -> ?warmup_fraction:float -> ?jobs:int -> unit ->
  run array array
(** Fused, memoized sweep: simulate every (per-workload layouts, unified
    cache geometry) member of a configuration grid, replaying each
    workload trace {e once per distinct placement} while feeding all of
    that placement's uncached members simultaneously ({!Replay.run_range}
    with several systems).  Result [.(m).(i)] is member [m]'s run on
    workload [i], bit-identical to
    [simulate ~layouts ~system:(fun () -> System.unified config)] called
    per member — same counters, same attribution arrays — just without
    the redundant trace decodes.  A single member is the way to simulate
    one unified configuration.

    Every member consults {!Sim_cache} first, keyed on (trace identity,
    layout digests, geometry, warm-up, attribution); hits skip replay
    entirely, and every simulated member is published to it.
    Effectiveness (members served from cache, replay passes and exec
    events saved) is counted in the [batch.*] registry counters, which
    the run manifest's [batch] object reads back. *)

val total : run array -> Counters.t
(** Sum of all workloads' counters. *)
