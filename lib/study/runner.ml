type run = { counters : Counters.t; os_block_misses : int array }

let default_warmup_fraction = 0.2

(* Replay distributions: how long one sweep member's share of a replay
   pass took and how fast passes decode events.  Observed per pass (and,
   for member seconds, once per member riding that pass), so batch fusion
   shows up as many members sharing one pass's wall-clock. *)
let member_seconds_hist =
  Metrics_registry.histogram ~unit_:"seconds" "simulate.member_seconds"

let events_per_sec_hist =
  Metrics_registry.histogram ~unit_:"events/s" "simulate.pass_events_per_sec"

(* [events] is the pass's exec-event count ({!Trace.exec_count}): replay
   advances only on executions, so invocation markers are not work. *)
let record_pass ~members ~events dt =
  for _ = 1 to members do
    Metrics_registry.observe member_seconds_hist
      (dt /. float_of_int (max 1 members))
  done;
  if dt > 0.0 then
    Metrics_registry.observe events_per_sec_hist (float_of_int events /. dt)

(* Warm-up thresholds count replayed executions (Replay.run_range only
   advances on exec events), so they must come from Trace.exec_count: a
   threshold derived from the marker-inclusive Trace.length would drift
   with invocation-marker density. *)
let warmup_of trace ~warmup_fraction =
  int_of_float (warmup_fraction *. float_of_int (Trace.exec_count trace))

let attribution_blocks program =
  Array.init (Program.image_count program) (fun k ->
      Graph.block_count (Program.graph program k))

let simulate (ctx : Context.t) ~layouts ~system ?(attribute_os = false)
    ?(warmup_fraction = default_warmup_fraction) ?jobs () =
  (* Each workload's replay is independent: a fresh System.t per slot, the
     shared trace/layout data is immutable, and results merge by index —
     so the output is bit-identical for every job count. *)
  Trace_log.with_span "simulate"
    ~args:[ ("workloads", Json.Int (Array.length ctx.Context.pairs)) ]
  @@ fun () ->
  Parallel.map_array ?jobs
    (fun i (w, program) ->
      let trace = ctx.Context.traces.(i) in
      Trace_log.with_span "replay_pass"
        ~args:
          [
            ("workload", Json.String w.Workload.name);
            ("members", Json.Int 1);
            ("events", Json.Int (Trace.exec_count trace));
            ("domain", Json.Int (Domain.self () :> int));
          ]
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let sys = system () in
      if attribute_os then
        System.enable_block_attribution sys ~images:(Program.image_count program)
          ~blocks:(attribution_blocks program);
      let map = Program_layout.code_map layouts.(i) in
      Replay.run_range ~trace ~map ~systems:[| sys |]
        ~warmup:(warmup_of trace ~warmup_fraction);
      record_pass ~members:1 ~events:(Trace.exec_count trace)
        (Unix.gettimeofday () -. t0);
      {
        counters = System.counters sys;
        os_block_misses = (if attribute_os then System.block_misses sys ~image:0 else [||]);
      })
    ctx.Context.pairs

let run_of_entry (e : Sim_cache.entry) =
  { counters = e.counters; os_block_misses = e.os_block_misses }

let entry_of_run r =
  { Sim_cache.counters = r.counters; os_block_misses = r.os_block_misses }

let member_key ctx ~warmup_fraction ~attribute_os (layouts, config) =
  Sim_cache.key ~context:(Context.key ctx)
    ~layouts:(Array.map Program_layout.digest layouts)
    ~config ~warmup_fraction ~attribute_os

let simulate_config ctx ~layouts ~config ?(attribute_os = false)
    ?(warmup_fraction = default_warmup_fraction) ?jobs () =
  (* Unified-cache runs are fully described by (trace identity, layout
     digests, geometry, warm-up, attribution), so they memoize; arbitrary
     [system] closures in [simulate] cannot be keyed and never cache. *)
  let key = member_key ctx ~warmup_fraction ~attribute_os (layouts, config) in
  match Sim_cache.find key with
  | Some entries -> Array.map run_of_entry entries
  | None ->
      let runs =
        simulate ctx ~layouts
          ~system:(fun () -> System.unified config)
          ~attribute_os ~warmup_fraction ?jobs ()
      in
      Sim_cache.add key (Array.map entry_of_run runs);
      runs

let copy_run r =
  {
    counters = Counters.copy r.counters;
    os_block_misses = Array.copy r.os_block_misses;
  }

let simulate_batch ctx ~members ?(attribute_os = false)
    ?(warmup_fraction = default_warmup_fraction) ?jobs () =
  let n = Array.length members in
  let results : run array array = Array.make n [||] in
  if n > 0 then begin
    let keys =
      Array.map (member_key ctx ~warmup_fraction ~attribute_os) members
    in
    (* Consult the memo per member; hits skip replay entirely. *)
    let cached = Array.map Sim_cache.find keys in
    (* One representative per distinct uncached key (first occurrence
       wins); equal keys provably replay to equal results, so duplicates
       within the batch share the representative's runs. *)
    let rep_of_key : (Sim_cache.key, int) Hashtbl.t = Hashtbl.create 16 in
    let rev_reps = ref [] in
    Array.iteri
      (fun m k ->
        if cached.(m) = None && not (Hashtbl.mem rep_of_key k) then begin
          Hashtbl.add rep_of_key k m;
          rev_reps := m :: !rev_reps
        end)
      keys;
    let reps = Array.of_list (List.rev !rev_reps) in
    (* Group representatives by placement digest: members whose layouts
       resolve to the same code maps ride one replay pass per workload,
       with every member's cache system fed from the same decoded event
       stream. *)
    let group_of_digest : (string, int list ref) Hashtbl.t = Hashtbl.create 16 in
    let rev_groups = ref [] in
    Array.iter
      (fun m ->
        let layouts, _ = members.(m) in
        let d =
          String.concat "|"
            (Array.to_list (Array.map Program_layout.digest layouts))
        in
        match Hashtbl.find_opt group_of_digest d with
        | Some cell -> cell := m :: !cell
        | None ->
            let cell = ref [ m ] in
            Hashtbl.add group_of_digest d cell;
            rev_groups := cell :: !rev_groups)
      reps;
    let groups =
      List.rev !rev_groups
      |> List.map (fun cell -> Array.of_list (List.rev !cell))
      |> Array.of_list
    in
    if Array.length reps > 0 then begin
      (* One pass per (workload, layout group); workloads fan out across
         domains exactly like [simulate], merging by index. *)
      let per_workload =
        Trace_log.with_span "simulate"
          ~args:
            [
              ("members", Json.Int n);
              ("uncached", Json.Int (Array.length reps));
              ("groups", Json.Int (Array.length groups));
              ("workloads", Json.Int (Array.length ctx.Context.pairs));
            ]
        @@ fun () ->
        Parallel.map_array ?jobs
          (fun i (w, program) ->
            let trace = ctx.Context.traces.(i) in
            let warmup = warmup_of trace ~warmup_fraction in
            Array.map
              (fun group ->
                Trace_log.with_span "replay_pass"
                  ~args:
                    [
                      ("workload", Json.String w.Workload.name);
                      ("members", Json.Int (Array.length group));
                      ("events", Json.Int (Trace.exec_count trace));
                      ("domain", Json.Int (Domain.self () :> int));
                    ]
                @@ fun () ->
                let t0 = Unix.gettimeofday () in
                let rep_layouts, _ = members.(group.(0)) in
                let map = Program_layout.code_map rep_layouts.(i) in
                let systems =
                  Array.map
                    (fun m ->
                      let sys = System.unified (snd members.(m)) in
                      if attribute_os then
                        System.enable_block_attribution sys
                          ~images:(Program.image_count program)
                          ~blocks:(attribution_blocks program);
                      sys)
                    group
                in
                Replay.run_range ~trace ~map ~systems ~warmup;
                record_pass ~members:(Array.length group)
                  ~events:(Trace.exec_count trace)
                  (Unix.gettimeofday () -. t0);
                Array.map
                  (fun sys ->
                    {
                      counters = System.counters sys;
                      os_block_misses =
                        (if attribute_os then System.block_misses sys ~image:0
                         else [||]);
                    })
                  systems)
              groups)
          ctx.Context.pairs
      in
      (* Transpose (workload, group, slot) -> per-member workload runs and
         publish them to the memo, so later sweeps (and duplicates below)
         are served from cache. *)
      let workloads = Array.length ctx.Context.pairs in
      Array.iteri
        (fun g group ->
          Array.iteri
            (fun j m ->
              let runs =
                Array.init workloads (fun i -> per_workload.(i).(g).(j))
              in
              Sim_cache.add keys.(m) (Array.map entry_of_run runs);
              results.(m) <- runs)
            group)
        groups
    end;
    (* Cache hits and within-batch duplicates. *)
    Array.iteri
      (fun m entries ->
        match entries with
        | Some entries -> results.(m) <- Array.map run_of_entry entries
        | None ->
            if Array.length results.(m) = 0 then
              let rep = Hashtbl.find rep_of_key keys.(m) in
              results.(m) <- Array.map copy_run results.(rep))
      cached;
    let cache_hits =
      Array.fold_left (fun acc c -> if c = None then acc else acc + 1) 0 cached
    in
    (* Effectiveness, summed over calls into the batch.* counters: the
       (workload x layout group) replay passes and exec events the fused
       path spent, and what per-member replay would have spent on top
       ("saved").  Replay advances only on exec events, so invocation
       markers are not replay work. *)
    let exec_events =
      Array.fold_left (fun acc t -> acc + Trace.exec_count t) 0 ctx.Context.traces
    in
    let workloads = Array.length ctx.Context.pairs in
    let passes = Array.length groups in
    let saved = Array.length reps - passes in
    List.iter
      (fun (field, by) ->
        Metrics_registry.incr ~by (Metrics_registry.counter ("batch." ^ field)))
      [
        ("calls", 1);
        ("members", n);
        ("cache_hits", cache_hits);
        ("simulated", Array.length reps);
        ("replay_passes", passes * workloads);
        ("passes_saved", saved * workloads);
        ("events_replayed", passes * exec_events);
        ("events_saved", saved * exec_events);
      ]
  end;
  results

let total runs =
  let acc = Counters.create () in
  Array.iter (fun r -> Counters.add acc r.counters) runs;
  acc
