type run = Sim_cache.entry = { counters : Counters.t; os_block_misses : int array }

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

let attribution_blocks program =
  Array.init (Program.image_count program) (fun k ->
      Graph.block_count (Program.graph program k))

(* One pass of workload [i]'s trace under [map], feeding every system at
   once.  The only replay body: [simulate] runs it with one system per
   workload, [simulate_batch] with one system per member of a layout
   group. *)
let replay_pass (ctx : Context.t) i ~map ~systems ~attribute_os ~warmup_fraction =
  let w, program = ctx.Context.pairs.(i) in
  let trace = ctx.Context.traces.(i) in
  let events = Trace.exec_count trace in
  let members = Array.length systems in
  Trace_log.with_span "replay_pass"
    ~args:
      [
        ("workload", Json.String w.Workload.name);
        ("members", Json.Int members);
        ("events", Json.Int events);
        ("domain", Json.Int (Domain.self () :> int));
      ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  if attribute_os then
    Array.iter
      (fun sys ->
        System.enable_block_attribution sys ~images:(Program.image_count program)
          ~blocks:(attribution_blocks program))
      systems;
  Replay.run_range ~trace ~map ~systems ~warmup_fraction;
  record_pass ~members ~events (Unix.gettimeofday () -. t0);
  Array.map
    (fun sys ->
      {
        counters = System.counters sys;
        os_block_misses =
          (if attribute_os then System.block_misses sys ~image:0 else [||]);
      })
    systems

let simulate (ctx : Context.t) ~layouts ~system ?(attribute_os = false)
    ?(warmup_fraction = Replay.default_warmup_fraction) ?jobs () =
  (* Each workload's replay is independent: a fresh System.t per slot, the
     shared trace/layout data is immutable, and results merge by index —
     so the output is bit-identical for every job count. *)
  Trace_log.with_span "simulate"
    ~args:[ ("workloads", Json.Int (Array.length ctx.Context.pairs)) ]
  @@ fun () ->
  Parallel.map_array ?jobs
    (fun i _ ->
      let map = Program_layout.code_map layouts.(i) in
      (replay_pass ctx i ~map ~systems:[| system () |] ~attribute_os
         ~warmup_fraction).(0))
    ctx.Context.pairs

let member_key ctx ~warmup_fraction ~attribute_os (layouts, config) =
  Sim_cache.key ~context:(Context.key ctx)
    ~layouts:(Array.map Program_layout.digest layouts)
    ~config ~warmup_fraction ~attribute_os

(* [idxs] grouped by [key]: groups in order of first occurrence, each
   group in [idxs] order. *)
let group_by key idxs =
  let cells = Hashtbl.create 16 in
  let rev_order = ref [] in
  Array.iter
    (fun m ->
      let k = key m in
      match Hashtbl.find_opt cells k with
      | Some cell -> cell := m :: !cell
      | None ->
          let cell = ref [ m ] in
          Hashtbl.add cells k cell;
          rev_order := cell :: !rev_order)
    idxs;
  Array.of_list (List.rev_map (fun cell -> Array.of_list (List.rev !cell)) !rev_order)

let simulate_batch ctx ~members ?(attribute_os = false)
    ?(warmup_fraction = Replay.default_warmup_fraction) ?jobs () =
  let n = Array.length members in
  let keys = Array.map (member_key ctx ~warmup_fraction ~attribute_os) members in
  (* Consult the memo per member; hits skip replay entirely. *)
  let cached = Array.map Sim_cache.find keys in
  let results = Array.map (Option.value ~default:[||]) cached in
  let uncached =
    Array.of_list (List.filter (fun m -> cached.(m) = None) (List.init n Fun.id))
  in
  let cache_hits = n - Array.length uncached in
  (* Equal keys provably replay to equal results: each distinct uncached
     key simulates once, through its first member (the representative). *)
  let dups = group_by (fun m -> keys.(m)) uncached in
  let reps = Array.map (fun d -> d.(0)) dups in
  (* Representatives whose layouts resolve to the same code maps ride one
     replay pass per workload, every member's cache system fed from the
     same decoded event stream. *)
  let placement m =
    String.concat "|"
      (Array.to_list (Array.map Program_layout.digest (fst members.(m))))
  in
  let groups = group_by placement reps in
  let workloads = Array.length ctx.Context.pairs in
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
            ("workloads", Json.Int workloads);
          ]
      @@ fun () ->
      Parallel.map_array ?jobs
        (fun i _ ->
          Array.map
            (fun group ->
              let map = Program_layout.code_map (fst members.(group.(0))).(i) in
              let systems =
                Array.map (fun m -> System.unified (snd members.(m))) group
              in
              replay_pass ctx i ~map ~systems ~attribute_os ~warmup_fraction)
            groups)
        ctx.Context.pairs
    in
    (* Transpose (workload, group, slot) -> per-member workload runs and
       publish them to the memo, so later sweeps are served from cache. *)
    Array.iteri
      (fun g group ->
        Array.iteri
          (fun j m ->
            results.(m) <- Array.init workloads (fun i -> per_workload.(i).(g).(j));
            Sim_cache.add keys.(m) results.(m))
          group)
      groups;
    (* Within-batch duplicates get independent copies of their
       representative's runs. *)
    Array.iter
      (fun d ->
        for j = 1 to Array.length d - 1 do
          results.(d.(j)) <- Array.map Sim_cache.copy results.(d.(0))
        done)
      dups
  end;
  (* Effectiveness, summed over calls into the batch.* counters: the
     (workload x layout group) replay passes and exec events the fused
     path spent, and what per-member replay would have spent on top
     ("saved").  Replay advances only on exec events, so invocation
     markers are not replay work. *)
  if n > 0 then begin
    let exec_events =
      Array.fold_left (fun acc t -> acc + Trace.exec_count t) 0 ctx.Context.traces
    in
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
