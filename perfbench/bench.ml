(* One cold sample of one benchmark workload, printed as a single JSON
   object on the last line of standard output.

   Every sample runs in a fresh process: Sim_cache, Layout_cache and the
   Levels memo live in the process, and every `icache-opt repro` user
   pays to fill them.  perfbench/run.py launches this program repeatedly
   and reduces the samples to medians; perfbench/README.md describes the
   workloads and which end-to-end metric each layer metric should move.

     bench.exe --workload repro_suite|cache_sweep|layout_grid --seed N
               [--check | --setup-only] [--traced --out DIR]

   Run it from the repository root: the repro_suite check reads the
   golden transcripts under test/golden. *)

let wall = Unix.gettimeofday

(* Gc.quick_stat folds in the counts of joined worker domains, so the
   numbers cover the whole process, not only the main domain. *)
let gc = Gc.quick_stat

(* Wall seconds and minor words of each benchmark-side call into a
   layer, summed by name.  The same names label the Trace_log spans, so
   the traced run's timeline and this table agree. *)
let timings : (string, float * float) Hashtbl.t = Hashtbl.create 64

let timed name f =
  Trace_log.with_span name @@ fun () ->
  let w0 = (gc ()).Gc.minor_words and t0 = wall () in
  let r = f () in
  let dt = wall () -. t0 and dw = (gc ()).Gc.minor_words -. w0 in
  let s, w = Option.value (Hashtbl.find_opt timings name) ~default:(0.0, 0.0) in
  Hashtbl.replace timings name (s +. dt, w +. dw);
  r

(* A reading of the clocks that time a phase: wall, this process's CPU
   (all domains) and the CPU-seconds the hypervisor has taken from this
   machine's CPUs (Linux /proc/stat, in USER_HZ = 100 ticks; 0 where that
   is unavailable). *)
type clocks = { at : float; cpu : float; steal : float }

let stolen () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match
          List.filter (( <> ) "")
            (String.split_on_char ' ' (Option.value (In_channel.input_line ic) ~default:""))
        with
        | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> float_of_string steal /. 100.0
        | _ -> 0.0)
  with Sys_error _ | Failure _ -> 0.0

let clocks () =
  let t = Unix.times () in
  { at = wall (); cpu = t.Unix.tms_utime +. t.Unix.tms_stime; steal = stolen () }

(* Wall seconds between two readings, net of host steal.  On a shared
   host the hypervisor sometimes runs other guests on this machine's CPUs
   for minutes at a time, and a phase then slows by the share of its CPU
   demand the host withheld: steal / (cpu + steal).  Scaling the wall time
   by the share it served takes that out; with no steal this is the wall
   time exactly. *)
let net_seconds a b =
  let cpu = b.cpu -. a.cpu and steal = b.steal -. a.steal in
  let w = b.at -. a.at in
  if cpu +. steal > 0.0 then w *. cpu /. (cpu +. steal) else w

let seconds_of name =
  fst (Option.value (Hashtbl.find_opt timings name) ~default:(0.0, 0.0))

let words_of name =
  snd (Option.value (Hashtbl.find_opt timings name) ~default:(0.0, 0.0))

(* ------------------------------------------------------------------ *)
(* Correctness checks                                                 *)
(* ------------------------------------------------------------------ *)

type check = string * bool

let workload_name (ctx : Context.t) i = (Context.workload_names ctx).(i)

(* Mattson inclusion: a fully-associative LRU cache of C lines misses
   exactly on the references whose stack distance is at least C, so the
   set-associative kernel and the stack-distance pass must agree.  The
   simulation uses warm-up 0 so cold misses count on both sides. *)
let mattson_checks ctx levels dists : check list =
  let fa = Config.make ~size_kb:4 ~assoc:128 () in
  let lines = fa.Config.size / fa.Config.line in
  let runs =
    Runner.simulate_batch ctx
      ~members:(Array.map (fun layouts -> (layouts, fa)) levels)
      ~warmup_fraction:0.0 ()
  in
  List.concat
    (List.mapi
       (fun l per_workload ->
         List.mapi
           (fun i (r : Runner.run) ->
             ( Printf.sprintf "mattson %s %s"
                 (Levels.to_string Levels.all.(l))
                 (workload_name ctx i),
               Counters.misses r.Runner.counters
               = Stack_dist.misses_at dists.(l).(i) ~lines ))
           (Array.to_list per_workload))
       (Array.to_list runs))

(* The fused, memoized batch against the plain per-member replay. *)
let unfused_checks ctx members runs picks : check list =
  List.concat_map
    (fun m ->
      let layouts, config = members.(m) in
      let solo =
        Runner.simulate ctx ~layouts ~system:(fun () -> System.unified config) ()
      in
      List.mapi
        (fun i (r : Runner.run) ->
          ( Printf.sprintf "unfused member %d (%s) %s" m (Config.to_string config)
              (workload_name ctx i),
            r.Runner.counters = runs.(m).(i).Runner.counters ))
        (Array.to_list solo))
    picks

let partition_checks runs : check list =
  List.mapi
    (fun m per_workload ->
      ( Printf.sprintf "partition member %d" m,
        Array.for_all
          (fun (r : Runner.run) ->
            let c = r.Runner.counters in
            let misses = Counters.misses c in
            c.Counters.os_cold + c.os_self + c.os_cross + c.app_cold + c.app_self
            + c.app_cross
            = misses
            && misses <= Counters.refs c)
          per_workload ))
    (Array.to_list runs)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  words : int;  (** Instruction words captured per trace. *)
  run : Context.t -> unit -> check list;
      (** The timed work; returns the checks to run once the clock has
          stopped. *)
}

(* What `icache-opt repro` users wait for: all 31 experiments in paper
   order.  The reference for its check is the checked-in transcripts of
   the small test context, which the timed run does not produce. *)
let repro_suite =
  let run ctx =
    List.iter
      (fun (e : Experiments.t) ->
        timed ("study.exp." ^ e.id) (fun () ->
            ignore (Result.render_text (Experiments.compute e ctx))))
      Experiments.all;
    fun () ->
      let small = Context.create ~spec:Spec.small ~words:150_000 ~seed:7 () in
      List.map
        (fun (e : Experiments.t) ->
          let golden =
            try
              Some
                (In_channel.with_open_bin
                   (Filename.concat "test/golden" (e.id ^ ".txt"))
                   In_channel.input_all)
            with Sys_error _ -> None
          in
          ( "golden " ^ e.id,
            golden = Some (Result.render_text (Experiments.compute e small)) ))
        Experiments.all
  in
  { words = 2_000_000; run }

(* Every member distinct: the direct-mapped cache once per size (its
   policy is irrelevant), each associative geometry under every policy. *)
let sweep_configs =
  Array.of_list
    (List.concat_map
       (fun size_kb ->
         Config.make ~size_kb ()
         :: List.concat_map
              (fun assoc ->
                List.map
                  (fun policy -> Config.make ~size_kb ~assoc ~policy ())
                  [ Config.Lru; Config.Fifo; Config.Random 1 ])
              [ 2; 4 ])
       [ 8; 32 ])

let cache_sweep =
  let run (ctx : Context.t) =
    let levels =
      Array.map (fun l -> timed "layout.build" (fun () -> Levels.build ctx l)) Levels.all
    in
    let members =
      Array.concat
        (Array.to_list
           (Array.map
              (fun layouts -> Array.map (fun c -> (layouts, c)) sweep_configs)
              levels))
    in
    let runs =
      timed "study.simulate_batch" (fun () -> Runner.simulate_batch ctx ~members ())
    in
    let dists =
      Array.map
        (fun layouts ->
          Array.mapi
            (fun i trace ->
              let map = Program_layout.code_map layouts.(i) in
              timed "cache.stack_dist" (fun () -> Stack_dist.from_trace ~trace ~map ()))
            ctx.Context.traces)
        levels
    in
    fun () ->
      let n = Array.length sweep_configs in
      mattson_checks ctx levels dists
      @ unfused_checks ctx members runs
          (List.init (Array.length levels) (fun l -> (l * n) + (l mod n)))
      @ partition_checks runs
  in
  { words = 1_000_000; run }

let grid_levels = [ Levels.OptS; Levels.OptL; Levels.OptA ]
let grid_sizes_kb = [ 4; 8; 16; 32 ]
let grid_cutoffs = [ None; Some 0.1; Some 0.25; Some 0.5; Some 1.0; Some 2.0 ]

(* A layout-parameter study (Fig. 16's SelfConfFree cut-off, per cache
   size); each layout is judged on the direct-mapped cache of its own
   size. *)
let layout_grid =
  let run ctx =
    let members =
      Array.of_list
        (List.concat_map
           (fun level ->
             List.concat_map
               (fun size_kb ->
                 List.map
                   (fun scf_cutoff ->
                     let params = Opt.params ~cache_size:(size_kb * 1024) ~scf_cutoff () in
                     ( timed "layout.build" (fun () -> Levels.build ctx ~params level),
                       Config.make ~size_kb () ))
                   grid_cutoffs)
               grid_sizes_kb)
           grid_levels)
    in
    let runs =
      timed "study.simulate_batch" (fun () -> Runner.simulate_batch ctx ~members ())
    in
    fun () ->
      let per_level = Array.length members / List.length grid_levels in
      unfused_checks ctx members runs
        (List.mapi (fun l _ -> (l * per_level) + l) grid_levels)
      @ partition_checks runs
  in
  { words = 500_000; run }

let workloads =
  [ ("repro_suite", repro_suite); ("cache_sweep", cache_sweep); ("layout_grid", layout_grid) ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run)                                     *)
(* ------------------------------------------------------------------ *)

let field path json =
  List.fold_left (fun j key -> Option.bind j (Json.member key)) (Some json) path

let num path json =
  Option.value (Option.bind (field path json) Json.to_float) ~default:0.0

let manifest_stage manifest name =
  match Option.bind (field [ "stages" ] manifest) Json.to_list with
  | None -> (0.0, 0.0)
  | Some stages -> (
      match
        List.find_opt (fun s -> field [ "name" ] s = Some (Json.String name)) stages
      with
      | Some s -> (num [ "count" ] s, num [ "seconds" ] s)
      | None -> (0.0, 0.0))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Counters of the work the workload itself did, read before any probe
   runs. *)
let workload_layers ~jobs ~wall_s ~(g0 : Gc.stat) ~(g1 : Gc.stat) =
  let manifest = Manifest.to_json () in
  let builds, build_s = manifest_stage manifest "levels_build" in
  let _, simulate_s = manifest_stage manifest "simulate" in
  let stages =
    List.concat_map
      (fun name ->
        let s =
          List.assoc_opt name (Layout_cache.stage_stats ())
          |> Option.value ~default:{ Layout_cache.hits = 0; misses = 0; seconds = 0.0 }
        in
        let h = float_of_int s.Layout_cache.hits in
        [
          (Printf.sprintf "layout.%s_s" name, s.Layout_cache.seconds);
          ( Printf.sprintf "layout.%s_hit_ratio" name,
            ratio h (h +. float_of_int s.Layout_cache.misses) );
        ])
      [ "sequences"; "scf"; "loop_mark"; "place"; "base"; "chang_hwu" ]
  in
  let lookups = float_of_int (Sim_cache.hits () + Sim_cache.misses ()) in
  let busy =
    num [ "histograms"; "parallel.domain_busy_seconds"; "sum" ] (Metrics_registry.to_json ())
  in
  [ ("layout.build_s", build_s); ("layout.builds", builds) ]
  @ stages
  @ [
      ( "study.simulate_batch_s",
        (* The benchmark's own clock where it calls simulate_batch itself:
           that also covers the memo keys and copies outside the
           library's replay stage. *)
        if seconds_of "study.simulate_batch" > 0.0 then seconds_of "study.simulate_batch"
        else simulate_s );
      ("study.members_simulated", num [ "batch"; "simulated" ] manifest);
      ("study.batch.events_replayed", num [ "batch"; "events_replayed" ] manifest);
      ("study.batch.replay_passes", num [ "batch"; "replay_passes" ] manifest);
      ("study.batch.passes_saved", num [ "batch"; "passes_saved" ] manifest);
      ("study.sim_cache_hit_ratio", ratio (float_of_int (Sim_cache.hits ())) lookups);
      ("study.sim_cache_lookups", lookups);
    ]
  @ List.map
      (fun (e : Experiments.t) -> ("study.exp." ^ e.id ^ "_s", seconds_of ("study.exp." ^ e.id)))
      Experiments.all
  @ [
      ( "study.parallel_busy_ratio",
        ratio busy (float_of_int jobs *. wall_s) );
      ( "util.gc.minor_collections",
        float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
      ( "util.gc.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
      ("util.gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
    ]

let replay_kernels =
  let unified ?assoc ?policy () = System.unified (Config.make ~size_kb:8 ?assoc ?policy ()) in
  [
    ("direct", fun () -> unified ());
    ("lru2", fun () -> unified ~assoc:2 ());
    ("lru4", fun () -> unified ~assoc:4 ());
    ("fifo4", fun () -> unified ~assoc:4 ~policy:Config.Fifo ());
    ("random4", fun () -> unified ~assoc:4 ~policy:(Config.Random 1) ());
    ("victim", fun () -> System.victim ~main:(Config.make ~size_kb:8 ()) ~entries:8);
  ]

let fused_configs =
  List.concat_map
    (fun size_kb ->
      [
        Config.make ~size_kb ();
        Config.make ~size_kb ~assoc:2 ();
        Config.make ~size_kb ~assoc:4 ();
        Config.make ~size_kb ~assoc:4 ~policy:Config.Fifo ();
      ])
    [ 4; 8; 16; 32 ]

(* Probes: fixed calls into one layer each, on this workload's context,
   timed by the benchmark's own clock.  Event rates count Trace.exec_count
   (replay advances only on executions, not on invocation markers). *)
let probe_layers (ctx : Context.t) =
  ignore (timed "kernel_model.generate" (fun () -> Generator.generate ctx.Context.spec));
  let captured =
    Array.mapi
      (fun i (workload, program) ->
        let _, stats =
          timed "workload.capture" (fun () ->
              Engine.capture ~program ~workload ~words:ctx.Context.words
                ~seed:(ctx.Context.seed + i))
        in
        stats.Engine.total_words)
      ctx.Context.pairs
  in
  (* A cold build of each default level, from empty stage caches. *)
  Layout_cache.clear ();
  let cold =
    Array.map
      (fun level ->
        timed "layout.cold_build" (fun () ->
            Levels.build_uncached ctx ~params:(Opt.params ()) level))
      Levels.all
  in
  let maps = Array.map Program_layout.code_map cold.(2) in
  let traces = ctx.Context.traces in
  let events = float_of_int (Array.fold_left (fun a t -> a + Trace.exec_count t) 0 traces) in
  let replay name systems =
    Array.iteri
      (fun i trace ->
        let systems = systems () in
        timed name (fun () -> Replay.run ~trace ~map:maps.(i) ~systems))
      traces
  in
  let kernels =
    List.concat_map
      (fun (k, make) ->
        let name = "cache.replay." ^ k in
        replay name (fun () -> [| make () |]);
        [
          (name ^ "_mevents_per_s", ratio (events /. 1e6) (seconds_of name));
          (name ^ "_words_per_event", words_of name /. events);
        ])
      replay_kernels
  in
  replay "cache.replay.fused16" (fun () ->
      Array.of_list (List.map System.unified fused_configs));
  let refs =
    Array.fold_left ( + ) 0
      (Array.mapi
         (fun i trace ->
           Stack_dist.refs
             (timed "cache.stack_dist_probe" (fun () ->
                  Stack_dist.from_trace ~trace ~map:maps.(i) ())))
         traces)
  in
  let refs = float_of_int refs in
  [
    ("kernel_model.generate_s", seconds_of "kernel_model.generate");
    ("workload.capture_s", seconds_of "workload.capture");
    ( "workload.capture_mwords_per_s",
      ratio (float_of_int (Array.fold_left ( + ) 0 captured) /. 1e6)
        (seconds_of "workload.capture") );
    ( "layout.build_kwords_per_build",
      words_of "layout.cold_build" /. 1e3 /. float_of_int (Array.length cold) );
  ]
  @ kernels
  @ [
      ( "cache.replay.fused16_mevents_per_s",
        ratio (events *. float_of_int (List.length fused_configs) /. 1e6)
          (seconds_of "cache.replay.fused16") );
      ( "cache.stack_dist_mrefs_per_s",
        ratio (refs /. 1e6) (seconds_of "cache.stack_dist_probe") );
      ("cache.stack_dist_words_per_ref", ratio (words_of "cache.stack_dist_probe") refs);
    ]

(* Per-span self time: a span's duration minus the part its children on
   the same track cover.  Worker-domain spans sit on their own tracks, so
   a fork-join parent's self time includes its wait at the join. *)
let self_time_table () =
  let agg : (string, int * float * float) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, (string * float * float ref) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace_log.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.track) ~default:[] in
      if e.begin_ then Hashtbl.replace stacks e.track ((e.name, e.ts, ref 0.0) :: stack)
      else
        match stack with
        | (name, ts, children) :: rest ->
            let dur = (e.ts -. ts) /. 1e6 in
            (match rest with (_, _, up) :: _ -> up := !up +. dur | [] -> ());
            let n, total, self =
              Option.value (Hashtbl.find_opt agg name) ~default:(0, 0.0, 0.0)
            in
            Hashtbl.replace agg name (n + 1, total +. dur, self +. dur -. !children);
            Hashtbl.replace stacks e.track rest
        | [] -> ())
    (Trace_log.events ());
  let rows =
    Hashtbl.fold (fun name (n, total, self) acc -> (name, n, total, self) :: acc) agg []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  String.concat ""
    (Printf.sprintf "%-36s %7s %10s %10s\n" "span" "count" "total_s" "self_s"
    :: List.map
         (fun (name, n, total, self) ->
           Printf.sprintf "%-36s %7d %10.4f %10.4f\n" name n total self)
         rows)

let write_file path s = Out.with_file path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 11 and check = ref false and setup_only = ref false in
  let traced = ref false and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N engine seed (Context.create ~seed)");
      ("--check", Arg.Set check, " run the correctness checks after the timed work");
      ("--setup-only", Arg.Set setup_only, " stop after Context.create");
      ("--traced", Arg.Set traced, " record spans and report per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--check | --setup-only] [--traced --out DIR]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload " ^ !workload ^ "; expected "
          ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  if !traced && !out = "" then (prerr_endline "--traced needs --out DIR"; exit 2);
  Trace_log.set_enabled !traced;
  let jobs = Parallel.default_jobs () in
  let g0 = gc () in
  let k0 = clocks () in
  let ctx = timed "bench.setup" (fun () -> Context.create ~words:w.words ~seed:!seed ()) in
  let k1 = clocks () in
  let setup_s = net_seconds k0 k1 in
  let num f = Json.Float f in
  let setup =
    [ ("setup_s", num setup_s); ("setup_wall_s", num (k1.at -. k0.at)) ]
  in
  if !setup_only then begin
    print_endline (Json.to_string ~minify:true (Json.Obj setup));
    exit 0
  end;
  let checks = timed "bench.run" (fun () -> w.run ctx) in
  let k2 = clocks () in
  let g1 = gc () in
  let run_s = net_seconds k1 k2 in
  let layers =
    if not !traced then []
    else begin
      let from_run = workload_layers ~jobs ~wall_s:(k2.at -. k0.at) ~g0 ~g1 in
      let from_probes = probe_layers ctx in
      let base = Filename.concat !out (Printf.sprintf "%s-seed%d" !workload !seed) in
      write_file (base ^ ".trace.json")
        (Json.to_string ~minify:true
           (Trace_log.to_chrome ~extra:[ ("metrics", Metrics_registry.to_json ()) ] ()));
      let table = self_time_table () in
      write_file (base ^ ".selftime.txt") table;
      prerr_string table;
      from_run @ from_probes
    end
  in
  let results = if !check then checks () else [] in
  List.iter
    (fun (name, ok) -> if not ok then prerr_endline ("check failed: " ^ name))
    results;
  let failed = List.length (List.filter (fun (_, ok) -> not ok) results) in
  let env =
    Json.Obj
      [
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("flambda", Json.Bool Build_env.flambda);
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("jobs", Json.Int jobs);
        ("words", Json.Int w.words);
        ("seed", Json.Int !seed);
      ]
  in
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          ((("workload", Json.String !workload) :: ("env", env) :: setup)
          @ [
              ("run_s", num run_s);
              ("run_wall_s", num (k2.at -. k1.at));
              ("steal_s", num (k2.steal -. k0.steal));
              ("alloc_mwords", num ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6));
              ( "peak_heap_mb",
                num (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6) );
              ("checks_run", Json.Int (List.length results));
              ("checks_failed", Json.Int failed);
              ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) layers));
            ])))
