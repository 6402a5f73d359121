(* Benchmark harness: regenerates every table and figure of the paper
   (Torrellas, Xia, Daigle - HPCA 1995) on the synthetic kernel, then
   times the pipeline's hot stages with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- all experiments + timing
     dune exec bench/main.exe -- table1 fig12 -- selected experiments
     dune exec bench/main.exe -- --no-timing  -- skip the Bechamel section
     ICACHE_WORDS=4000000 dune exec bench/main.exe -- longer traces
     ICACHE_JOBS=4 dune exec bench/main.exe     -- worker-domain count

   Each experiment line reports wall-clock time and the Sim_cache hit/miss
   delta, so redundant (layout, geometry) re-simulation shows up as hits. *)

let words_from_env () =
  match Sys.getenv_opt "ICACHE_WORDS" with
  | Some s -> ( try int_of_string s with Failure _ -> 2_000_000)
  | None -> 2_000_000

(* Wall clock, not Sys.time: with --jobs > 1 the cpu clock counts every
   domain and would overstate the elapsed time we are trying to shrink. *)
let wall = Unix.gettimeofday

let run_experiments ctx ids =
  let exps =
    match ids with
    | [] -> Experiments.all
    | ids ->
        List.filter_map
          (fun id ->
            match Experiments.find id with
            | e -> Some e
            | exception Not_found ->
                Printf.printf "unknown experiment %S; known: %s\n" id
                  (String.concat ", "
                     (List.map (fun e -> e.Experiments.id) Experiments.all));
                None)
          ids
  in
  let t_suite = wall () in
  List.iter
    (fun (e : Experiments.t) ->
      let h0 = Sim_cache.hits () and m0 = Sim_cache.misses () in
      let l0 = Layout_cache.totals () in
      let t0 = wall () in
      Experiments.run e ctx;
      let l1 = Layout_cache.totals () in
      Printf.printf
        "  [bench] %-12s %6.2fs wall   sim-cache %d hit / %d miss   layout-cache %d hit / %d miss\n%!"
        e.Experiments.id
        (wall () -. t0)
        (Sim_cache.hits () - h0)
        (Sim_cache.misses () - m0)
        (l1.Layout_cache.hits - l0.Layout_cache.hits)
        (l1.Layout_cache.misses - l0.Layout_cache.misses))
    exps;
  let lt = Layout_cache.totals () in
  let layout_lookups = lt.Layout_cache.hits + lt.Layout_cache.misses in
  Printf.printf
    "\n=== %d experiments: %.2fs wall | sim-cache %d hits / %d misses (%.1f%% hit rate) | %d jobs ===\n%!"
    (List.length exps)
    (wall () -. t_suite)
    (Sim_cache.hits ()) (Sim_cache.misses ())
    (100.0 *. Sim_cache.hit_rate ())
    (Parallel.default_jobs ());
  Printf.printf "=== layout stages:%s | %d hits / %d misses (%.1f%% hit rate) ===\n%!"
    (String.concat ""
       (List.map
          (fun (name, (s : Layout_cache.stats)) ->
            Printf.sprintf " %s %.2fs" name s.Layout_cache.seconds)
          (Layout_cache.stage_stats ())))
    lt.Layout_cache.hits lt.Layout_cache.misses
    (if layout_lookups = 0 then 0.0
     else 100.0 *. float_of_int lt.Layout_cache.hits /. float_of_int layout_lookups);
  (* Allocation pressure of the whole run, so a GC regression shows up in
     the transcript as well as the manifest's run.gc object. *)
  let g = Gc.quick_stat () in
  Printf.printf
    "=== gc: %d minor / %d major collections | %.0fM minor words, %.0fM promoted | peak heap %.1fMB ===\n%!"
    g.Gc.minor_collections g.Gc.major_collections
    (g.Gc.minor_words /. 1e6) (g.Gc.promoted_words /. 1e6)
    (float_of_int g.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6);
  (* Machine-readable counterpart of the lines above: per-stage wall
     clock, Sim_cache counters, per-experiment timings and (schema v4)
     the metrics-registry snapshot plus GC statistics. *)
  let manifest_path = "BENCH_repro.json" in
  Out.with_file manifest_path (fun oc ->
      output_string oc (Json.to_string (Manifest.to_json ()));
      output_char oc '\n');
  Printf.printf "run manifest written to %s\n%!" manifest_path;
  (* The span timeline of the same run, viewable in Perfetto and
     summarized by `icache-opt trace-summary`. *)
  let trace_path = "BENCH_trace.json" in
  Out.with_file trace_path (fun oc ->
      output_string oc
        (Json.to_string ~minify:true
           (Trace_log.to_chrome
              ~extra:[ ("metrics", Metrics_registry.to_json ()) ]
              ()));
      output_char oc '\n');
  Printf.printf "span trace written to %s (%d spans)\n%!" trace_path
    (Trace_log.span_count ())

let timing ctx =
  let open Bechamel in
  let model = ctx.Context.model in
  let profile = ctx.Context.avg_os_profile in
  let loops = Program_layout.os_loops model in
  let program = snd ctx.Context.pairs.(0) in
  let workload = fst ctx.Context.pairs.(0) in
  let layouts = Levels.build ctx Levels.OptS in
  let map = Program_layout.code_map layouts.(0) in
  let os_map = layouts.(0).Program_layout.os_map in
  let trace = ctx.Context.traces.(0) in
  let tests =
    [
      Test.make ~name:"kernel-generation"
        (Staged.stage (fun () -> ignore (Generator.generate Spec.small)));
      Test.make ~name:"trace-100k-words"
        (Staged.stage (fun () ->
             ignore
               (Engine.run ~program ~workload ~words:100_000 ~seed:3
                  ~sink:Engine.null_sink)));
      Test.make ~name:"sequence-construction"
        (Staged.stage (fun () ->
             ignore
               (Sequence.build ~graph:model.Model.graph ~profile
                  ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
                  ~schedule:Schedule.paper ())));
      (* [Levels.build] above filled every stage for the default
         params, so with the stage caches on this row would time only
         digests and lookups.  Off, it times sequences, SCF and place. *)
      Test.make ~name:"opt-s-layout"
        (Staged.stage (fun () ->
             Layout_cache.set_enabled false;
             Fun.protect
               ~finally:(fun () -> Layout_cache.set_enabled true)
               (fun () -> ignore (Opt.os_layout ~model ~profile ~loops (Opt.params ())))));
      Test.make ~name:"address-map-validate"
        (Staged.stage (fun () -> Address_map.validate os_map));
      Test.make ~name:"chang-hwu-layout"
        (Staged.stage (fun () -> ignore (Chang_hwu.layout model.Model.graph profile)));
      Test.make ~name:"pettis-hansen-layout"
        (Staged.stage (fun () ->
             ignore (Pettis_hansen.layout model.Model.graph profile)));
      Test.make ~name:"inline-transform"
        (Staged.stage (fun () -> ignore (Inline.transform ~model ~profile ())));
      Test.make ~name:"stack-distance-pass"
        (Staged.stage (fun () ->
             ignore (Stack_dist.from_trace ~trace ~map ~os_only:true ())));
      Test.make ~name:"cache-replay-8KB"
        (Staged.stage (fun () ->
             let sys = System.unified (Config.make ~size_kb:8 ()) in
             Replay.run ~trace ~map ~systems:[| sys |]));
    ]
  in
  print_newline ();
  print_endline "=== Bechamel timing (monotonic clock, ns/run) ===";
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ())
          Toolkit.Instance.[ monotonic_clock ]
          test
      in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      Hashtbl.iter
        (fun name raws ->
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raws in
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-28s %14.0f\n%!" name est
          | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
        results)
    tests

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let no_timing = List.mem "--no-timing" args in
  let ids = List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  let words = words_from_env () in
  Printf.printf "Reproduction harness: %d instruction words per workload, %d jobs\n%!"
    words (Parallel.default_jobs ());
  (* Record the span timeline for BENCH_trace.json; spans only observe,
     and the per-span cost is far below Bechamel's noise floor. *)
  Trace_log.set_enabled true;
  let t0 = wall () in
  let ctx = Context.create ~words () in
  Printf.printf "context built in %.1fs (wall)\n%!" (wall () -. t0);
  run_experiments ctx ids;
  if not no_timing then timing ctx
