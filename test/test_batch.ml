open Helpers

(* Fused multi-configuration replay: [Runner.simulate_batch] must be
   bit-identical to simulating every member alone, whatever mixture of
   layouts, geometries, policies, duplicates and cache temperatures the
   caller throws at it.  This is the safety net under the experiment
   conversions: if fan-out through a shared Replay pass ever diverges
   from the solo path, these properties fail before any golden does. *)

(* A pool of (layout level, geometry) combinations spanning the dispatch
   kernels: direct-mapped (the specialized fast path), LRU / FIFO with
   real associativity, and the seeded Random policy. *)
let combos =
  [|
    (Levels.Base, Config.make ~size_kb:4 ());
    (Levels.Base, Config.make ~size_kb:8 ~assoc:2 ());
    (Levels.Base, Config.make ~size_kb:8 ~assoc:4 ~policy:Config.Fifo ());
    (Levels.CH, Config.make ~size_kb:8 ());
    (Levels.CH, Config.make ~size_kb:4 ~assoc:4 ~policy:(Config.Random 1234) ());
    (Levels.OptS, Config.make ~size_kb:8 ());
    (Levels.OptS, Config.make ~size_kb:16 ~assoc:2 ~policy:Config.Fifo ());
    (Levels.OptS, Config.make ~size_kb:4 ~line:16 ())
  |]

let members_of ctx picks =
  Array.of_list
    (List.map
       (fun i ->
         let level, config = combos.(i mod Array.length combos) in
         (Levels.build ctx level, config))
       picks)

let same_runs (a : Runner.run array) (b : Runner.run array) =
  Array.for_all2
    (fun (x : Runner.run) (y : Runner.run) ->
      x.Runner.counters = y.Runner.counters
      && x.Runner.os_block_misses = y.Runner.os_block_misses)
    a b

(* Cold cache on both sides: the batch replays everything through fused
   passes, the reference replays each member alone. *)
let prop_batch_equals_sequential =
  QCheck.Test.make
    ~name:"simulate_batch == per-member simulate_config (cold cache)" ~count:6
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_bound 100)) bool)
    (fun (picks, attribute_os) ->
      let ctx = Lazy.force small_context in
      let members = members_of ctx picks in
      Sim_cache.clear ();
      let batch = Runner.simulate_batch ctx ~members ~attribute_os () in
      Sim_cache.clear ();
      let seq =
        Array.map
          (fun (layouts, config) ->
            Runner.simulate_config ctx ~layouts ~config ~attribute_os ())
          members
      in
      Array.for_all2 same_runs batch seq)

(* Warm cache: every member was already simulated solo, so the batch must
   serve pure Sim_cache hits (no new misses) and return identical runs. *)
let prop_batch_serves_warm_entries =
  QCheck.Test.make ~name:"simulate_batch serves warm Sim_cache entries" ~count:4
    QCheck.(list_of_size Gen.(1 -- 5) (int_bound 100))
    (fun picks ->
      let ctx = Lazy.force small_context in
      let members = members_of ctx picks in
      Sim_cache.clear ();
      let seq =
        Array.map
          (fun (layouts, config) -> Runner.simulate_config ctx ~layouts ~config ())
          members
      in
      let m0 = Sim_cache.misses () in
      let batch = Runner.simulate_batch ctx ~members () in
      Sim_cache.misses () = m0 && Array.for_all2 same_runs batch seq)

(* The direct-mapped fast path must agree with the generic kernel.  A
   Random policy at associativity 1 stays on the generic path but has no
   actual choice to make (the only way is always the victim), so its
   counters must coincide with the specialized LRU/assoc=1 dispatch. *)
let prop_direct_fast_path_matches_generic =
  QCheck.Test.make ~name:"direct-mapped fast path == generic assoc=1 kernel"
    ~count:6
    QCheck.(pair (oneofl [ 4; 8; 16 ]) (oneofl [ 16; 32 ]))
    (fun (size_kb, line) ->
      let ctx = Lazy.force small_context in
      let layouts = Levels.build ctx Levels.Base in
      Sim_cache.clear ();
      let direct =
        Runner.simulate_config ctx ~layouts
          ~config:(Config.make ~size_kb ~line ()) ()
      in
      let generic =
        Runner.simulate_config ctx ~layouts
          ~config:(Config.make ~size_kb ~line ~policy:(Config.Random 7) ()) ()
      in
      Array.for_all2
        (fun (x : Runner.run) (y : Runner.run) ->
          x.Runner.counters = y.Runner.counters)
        direct generic)

(* Duplicate members must come back as independent deep copies: mutating
   one result cannot leak into its twin. *)
let test_duplicates_are_copies () =
  let ctx = Lazy.force small_context in
  let member = (Levels.build ctx Levels.Base, Config.make ~size_kb:8 ()) in
  Sim_cache.clear ();
  let batch = Runner.simulate_batch ctx ~members:[| member; member |] () in
  check_bool "duplicate members agree" true (same_runs batch.(0) batch.(1));
  batch.(0).(0).Runner.counters.Counters.os_self <- min_int;
  check_bool "results are independent copies" true
    (batch.(1).(0).Runner.counters.Counters.os_self <> min_int)

(* The replay_pass span's [events] arg (and the pass_events_per_sec
   histogram fed alongside it) must count the work a pass does: replay
   advances only on exec events, so invocation markers are excluded. *)
let test_replay_pass_counts_exec_events () =
  let ctx = Lazy.force small_context in
  let layouts = Levels.build ctx Levels.Base in
  let config = Config.make ~size_kb:8 () in
  Sim_cache.clear ();
  Trace_log.reset ();
  Trace_log.set_enabled true;
  ignore (Runner.simulate ctx ~layouts ~system:(fun () -> System.unified config) ());
  ignore (Runner.simulate_batch ctx ~members:[| (layouts, config) |] ());
  Trace_log.set_enabled false;
  let exec = List.sort compare (Array.to_list (Array.map Trace.exec_count ctx.Context.traces)) in
  let events =
    List.filter_map
      (fun (e : Trace_log.event) ->
        if e.Trace_log.begin_ && e.Trace_log.name = "replay_pass" then
          Option.bind (List.assoc_opt "events" e.Trace_log.args) Json.to_int
        else None)
      (Trace_log.events ())
  in
  Trace_log.reset ();
  check_bool "markers present, so the counts differ" true
    (Array.exists (fun t -> Trace.exec_count t < Trace.length t) ctx.Context.traces);
  check_bool "one pass per workload per entry point, each counting exec events" true
    (List.sort compare events = List.sort compare (exec @ exec))

(* The manifest's batch.events_replayed counts replay work, which
   advances only on exec events: every replay pass of one call covers one
   workload's trace, so the call adds (passes / workloads) x the summed
   exec counts, never the marker-inclusive Trace.length. *)
let test_batch_counts_exec_events () =
  let ctx = Lazy.force small_context in
  let members =
    [|
      (Levels.build ctx Levels.Base, Config.make ~size_kb:8 ());
      (Levels.build ctx Levels.CH, Config.make ~size_kb:8 ());
    |]
  in
  let batch field =
    match
      Option.bind (Json.member "batch" (Manifest.to_json ())) (Json.member field)
    with
    | Some j -> Option.get (Json.to_int j)
    | None -> Alcotest.failf "manifest batch.%s missing" field
  in
  Sim_cache.clear ();
  let passes0 = batch "replay_passes" and events0 = batch "events_replayed" in
  ignore (Runner.simulate_batch ctx ~members ());
  let passes = batch "replay_passes" - passes0 in
  let exec = Array.fold_left (fun a t -> a + Trace.exec_count t) 0 ctx.Context.traces in
  check_int "two layout groups, one pass per workload each"
    (2 * Context.workload_count ctx) passes;
  check_int "events_replayed = passes x exec events per workload"
    (passes / Context.workload_count ctx * exec)
    (batch "events_replayed" - events0)

let () =
  Alcotest.run "batch"
    [
      ( "equivalence",
        [
          qcheck prop_batch_equals_sequential;
          qcheck prop_batch_serves_warm_entries;
          qcheck prop_direct_fast_path_matches_generic;
          case "duplicate members are deep copies" test_duplicates_are_copies;
          case "replay_pass counts exec events" test_replay_pass_counts_exec_events;
          case "batch events_replayed counts exec events" test_batch_counts_exec_events;
        ] );
    ]
