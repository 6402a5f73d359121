open Helpers

let model () = Lazy.force small_model

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let t = Trace.create ~capacity:2 () in
  let events =
    [
      Trace.Invocation_start Service.Interrupt;
      Trace.Exec { image = 0; block = 42 };
      Trace.Exec { image = 3; block = 0 };
      Trace.Invocation_end;
      Trace.Invocation_start Service.Syscall;
      Trace.Exec { image = 1; block = 123_456 };
      Trace.Invocation_end;
    ]
  in
  List.iter (Trace.append t) events;
  check_int "length" (List.length events) (Trace.length t);
  List.iteri
    (fun i e ->
      check_bool (Printf.sprintf "event %d round-trips" i) true (Trace.get t i = e))
    events;
  check_bool "events_to_list" true (Trace.events_to_list t = events)

let test_trace_capacity_growth () =
  let t = Trace.create ~capacity:1 () in
  for b = 0 to 999 do
    Trace.append t (Trace.Exec { image = 0; block = b })
  done;
  check_int "grew to 1000" 1000 (Trace.length t);
  check_bool "last intact" true (Trace.get t 999 = Trace.Exec { image = 0; block = 999 })

let test_trace_iter_exec () =
  let t = Trace.create () in
  Trace.append t (Trace.Invocation_start Service.Other);
  Trace.append t (Trace.Exec { image = 2; block = 7 });
  Trace.append t (Trace.Invocation_end);
  Trace.append t (Trace.Exec { image = 0; block = 9 });
  let seen = ref [] in
  Trace.iter_exec t (fun ~image ~block -> seen := (image, block) :: !seen);
  check_bool "only exec events" true (List.rev !seen = [ (2, 7); (0, 9) ]);
  let all = ref 0 in
  Trace.iter t (fun _ -> incr all);
  check_int "iter sees all" 4 !all

(* ------------------------------------------------------------------ *)
(* Walker                                                             *)
(* ------------------------------------------------------------------ *)

let collect_walk g arc_prob start =
  let w = Walker.create ~graph:g ~arc_prob ~prng:(Prng.of_int 5) () in
  Walker.start w start;
  let rec go acc =
    match Walker.step w with -1 -> List.rev acc | b -> go (b :: acc)
  in
  go []

let test_walker_follows_call () =
  let lc = loop_call () in
  (* Loop never repeats: back edge probability 0. *)
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  arc_prob.(lc.back_edge) <- 0.0;
  let walk = collect_walk lc.g arc_prob lc.c0 in
  check_bool "walk descends into callee and returns" true
    (walk = [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ])

let test_walker_loop_iterations () =
  let lc = loop_call () in
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  (* Deterministic 100% back edge would never terminate; override the
     latch to take the back edge, and rewrite the override after its second
     execution so the third one exits. *)
  let exit_arc =
    Array.to_list (Graph.out_arcs lc.g lc.c3) |> List.find (fun a -> a <> lc.back_edge)
  in
  let override = Array.make (Graph.block_count lc.g) (-1) in
  override.(lc.c3) <- lc.back_edge;
  let w = Walker.create ~graph:lc.g ~arc_prob ~prng:(Prng.of_int 5) ~override () in
  Walker.start w lc.c0;
  let latches = ref 0 in
  let rec go acc =
    match Walker.step w with
    | -1 -> List.rev acc
    | b ->
        if b = lc.c3 then begin
          incr latches;
          if !latches = 2 then override.(lc.c3) <- exit_arc
        end;
        go (b :: acc)
  in
  let walk = go [] in
  let count b = List.length (List.filter (fun x -> x = b) walk) in
  check_int "header executed 3 times" 3 (count lc.c1);
  check_int "callee body executed 3 times" 3 (count lc.l0);
  check_int "exit once" 1 (count lc.c4)

let test_walker_active_depth () =
  let lc = loop_call () in
  let arc_prob = Array.make (Graph.arc_count lc.g) 1.0 in
  arc_prob.(lc.back_edge) <- 0.0;
  let w = Walker.create ~graph:lc.g ~arc_prob ~prng:(Prng.of_int 5) () in
  check_bool "inactive before start" false (Walker.active w);
  Walker.start w lc.c0;
  check_bool "active after start" true (Walker.active w);
  (* Step until we are inside the callee. *)
  let rec step_until b =
    match Walker.step w with
    | -1 -> Alcotest.fail "walk ended early"
    | x when x = b -> ()
    | _ -> step_until b
  in
  step_until lc.l0;
  check_bool "depth positive inside callee" true (Walker.depth w >= 1);
  step_until lc.c4;
  check_int "drained" (-1) (Walker.step w);
  check_bool "inactive after completion" false (Walker.active w)

let test_walker_on_arc () =
  let d = diamond () in
  let arc_prob = Array.make (Graph.arc_count d.g) 0.0 in
  arc_prob.(d.arc_ea) <- 1.0;
  arc_prob.(d.arc_ax) <- 1.0;
  let arcs = ref [] in
  let w =
    Walker.create ~graph:d.g ~arc_prob ~prng:(Prng.of_int 5)
      ~on_arc:(fun a -> arcs := a :: !arcs)
      ()
  in
  Walker.start w d.entry;
  let rec drain () = if Walker.step w >= 0 then drain () in
  drain ();
  check_bool "took the hot path arcs" true (List.rev !arcs = [ d.arc_ea; d.arc_ax ])

let test_walker_probabilistic_split () =
  let d = diamond () in
  let arc_prob = Array.make (Graph.arc_count d.g) 1.0 in
  arc_prob.(d.arc_ea) <- 0.7;
  arc_prob.(d.arc_eb) <- 0.3;
  let a_count = ref 0 and n = 5_000 in
  let w = Walker.create ~graph:d.g ~arc_prob ~prng:(Prng.of_int 5) () in
  for _ = 1 to n do
    Walker.start w d.entry;
    let rec drain () =
      match Walker.step w with
      | -1 -> ()
      | b ->
          if b = d.a then incr a_count;
          drain ()
    in
    drain ()
  done;
  check_close 0.03 "split matches probabilities" 0.7
    (float_of_int !a_count /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* Workload / Program                                                 *)
(* ------------------------------------------------------------------ *)

let test_workloads_standard () =
  let m = model () in
  let ws = Workload.standard m in
  check_int "four workloads" 4 (Array.length ws);
  check_int "standard_count" (Array.length ws) Workload.standard_count;
  check_int "one program per workload" Workload.standard_count
    (Array.length (Workload.standard_programs m));
  Array.iter
    (fun (w : Workload.t) ->
      check_close 1e-9 "mix sums to 1" 1.0 (Stats.sum w.Workload.mix);
      check_int "weights for each class" Service.count
        (Array.length w.Workload.handler_weights);
      check_bool "os fraction in (0,1]" true
        (w.Workload.os_fraction > 0.0 && w.Workload.os_fraction <= 1.0);
      Array.iteri
        (fun ci hw ->
          check_int "one weight per handler"
            (Array.length m.Model.handlers.(ci))
            (Array.length hw))
        w.Workload.handler_weights)
    ws

let test_workload_characters () =
  let m = model () in
  let trfd = Workload.trfd_4 m and shell = Workload.shell m in
  let ix s = Service.index s in
  check_bool "TRFD_4 is interrupt dominated" true
    (trfd.Workload.mix.(ix Service.Interrupt) > trfd.Workload.mix.(ix Service.Syscall));
  check_bool "Shell is syscall dominated" true
    (shell.Workload.mix.(ix Service.Syscall) > shell.Workload.mix.(ix Service.Interrupt));
  check_float "TRFD_4 never syscalls" 0.0 (trfd.Workload.mix.(ix Service.Syscall));
  check_bool "Shell runs no traced app" true
    (Array.length shell.Workload.app_instances = 0 || shell.Workload.os_fraction = 1.0)

let test_focused_weights () =
  let g = Prng.of_int 9 in
  let w = Workload.focused_weights g ~n:10 ~used:4 ~common_weight:0.5 in
  check_int "length" 10 (Array.length w);
  check_float "handler 0 gets the common weight" 0.5 w.(0);
  let used = Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 w in
  check_int "exactly [used] handlers weighted" 4 used;
  Array.iter (fun x -> check_bool "weights non-negative" true (x >= 0.0)) w

let test_program_images () =
  let m = model () in
  let apps = [| App_model.trfd () |] in
  let p = Program.make ~os:m ~apps in
  check_int "image count" 2 (Program.image_count p);
  check_bool "os image" true (Program.is_os Program.os_image);
  check_bool "app image" false (Program.is_os 1);
  check_bool "os graph" true (Program.graph p 0 == m.Model.graph);
  check_bool "app graph" true (Program.graph p 1 == apps.(0).App_model.graph);
  check_raises_invalid "bad image" (fun () -> Program.graph p 2);
  check_bool "image names differ" true
    (Program.image_name p 0 <> Program.image_name p 1)

let test_program_max_apps () =
  let m = model () in
  let apps = Array.init (Program.max_apps + 1) (fun _ -> App_model.trfd ()) in
  check_raises_invalid "too many apps" (fun () -> Program.make ~os:m ~apps)

let test_standard_programs () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  check_int "four pairs" 4 (Array.length pairs);
  Array.iter
    (fun ((w : Workload.t), (p : Program.t)) ->
      Array.iter
        (fun inst ->
          check_bool "instance indexes a real image" true
            (inst >= 1 && inst < Program.image_count p))
        w.Workload.app_instances)
    pairs

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let run_one ?(words = 60_000) ?(seed = 3) which =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(which) in
  (w, p, Engine.capture ~program:p ~workload:w ~words ~seed)

let test_engine_word_budget () =
  let _, _, (_, stats) = run_one 1 in
  check_bool "at least the requested words" true (stats.Engine.total_words >= 60_000);
  check_int "words add up" stats.Engine.total_words
    (stats.Engine.os_words + stats.Engine.app_words)

let test_engine_os_fraction () =
  let w, _, (_, stats) = run_one 1 in
  let actual =
    float_of_int stats.Engine.os_words /. float_of_int stats.Engine.total_words
  in
  check_close 0.08 "OS share converges to target" w.Workload.os_fraction actual

(* Each Multiproc CPU is one more engine run: the same core, scheduled by
   the N-CPU scheduler. *)
let mp_cpus () =
  let w, p = (Workload.standard_programs (model ())).(0) in
  let r =
    Multiproc.run ~program:p ~workload:w ~cpus:4 ~words_per_cpu:20_000 ~seed:5
      ~xcall_prob:0.5 ()
  in
  ( p,
    Array.to_list
      (Array.map
         (fun (c : Multiproc.cpu) -> (c.Multiproc.trace, c.Multiproc.stats))
         r.Multiproc.cpus) )

let test_engine_invocation_markers_balanced () =
  let _, _, run = run_one 0 in
  let _, cpus = mp_cpus () in
  List.iter
    (fun (trace, stats) ->
      let starts = ref 0 and ends = ref 0 and depth_bad = ref false in
      let depth = ref 0 in
      Trace.iter trace (fun e ->
          match e with
          | Trace.Invocation_start _ ->
              incr starts;
              incr depth;
              if !depth > 1 then depth_bad := true
          | Trace.Invocation_end ->
              incr ends;
              decr depth;
              if !depth < 0 then depth_bad := true
          | Trace.Exec _ -> ());
      check_bool "markers never nest or underflow" false !depth_bad;
      check_bool "starts within one of ends" true (abs (!starts - !ends) <= 1);
      check_int "stats count the invocations" !starts
        (Array.fold_left ( + ) 0 stats.Engine.invocations))
    (run :: cpus)

let test_engine_determinism () =
  let _, _, (t1, s1) = run_one ~seed:5 2 in
  let _, _, (t2, s2) = run_one ~seed:5 2 in
  check_int "same trace length" (Trace.length t1) (Trace.length t2);
  check_int "same total words" s1.Engine.total_words s2.Engine.total_words;
  let same = ref true in
  for i = 0 to Trace.length t1 - 1 do
    if Trace.get t1 i <> Trace.get t2 i then same := false
  done;
  check_bool "identical event streams" true !same

let test_engine_seed_changes_trace () =
  let _, _, (_, s1) = run_one ~seed:5 2 in
  let _, _, (_, s2) = run_one ~seed:6 2 in
  check_bool "different seeds give different runs" true
    (s1.Engine.total_words <> s2.Engine.total_words
    || s1.Engine.os_words <> s2.Engine.os_words)

let test_engine_mix_respected () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(0) in
  (* TRFD_4: syscall share is 0; interrupts dominate. *)
  let _, stats = Engine.capture ~program:p ~workload:w ~words:80_000 ~seed:3 in
  let total = float_of_int (Array.fold_left ( + ) 0 stats.Engine.invocations) in
  let share s =
    float_of_int stats.Engine.invocations.(Service.index s) /. total
  in
  check_float "no syscalls in TRFD_4" 0.0 (share Service.Syscall);
  check_bool "interrupts dominate" true (share Service.Interrupt > 0.5)

let test_engine_context_switches () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(1) in
  let _, stats = Engine.capture ~program:p ~workload:w ~words:80_000 ~seed:3 in
  if w.Workload.switch_period > 0 then
    check_bool "context switches happen" true (stats.Engine.context_switches > 0)

(* The dispatch override array holds one arc per block, so a kernel where
   two classes dispatch from the same block is rejected up front. *)
let test_engine_shared_dispatch_rejected () =
  let w, p = (Workload.standard_programs (model ())).(0) in
  let d = p.Program.os.Model.dispatches in
  let shared = Array.mapi (fun ci x -> if ci = 1 then d.(0) else x) d in
  let program = { p with Program.os = { p.Program.os with Model.dispatches = shared } } in
  check_raises_invalid "two classes, one dispatch block" (fun () ->
      ignore (Engine.capture ~program ~workload:w ~words:1_000 ~seed:3))

let test_engine_trace_agrees_with_stats () =
  let _, p, run = run_one 1 in
  let mp, cpus = mp_cpus () in
  List.iter
    (fun (p, (trace, stats)) ->
      let os = ref 0 and app = ref 0 in
      Trace.iter_exec trace (fun ~image ~block ->
          let words =
            Block.instruction_words (Graph.block (Program.graph p image) block)
          in
          if Program.is_os image then os := !os + words else app := !app + words);
      check_int "os words agree" stats.Engine.os_words !os;
      check_int "app words agree" stats.Engine.app_words !app;
      check_int "total is os + app" stats.Engine.total_words (!os + !app))
    ((p, run) :: List.map (fun c -> (mp, c)) cpus)

(* The slow reference for Profile.capture: Engine.trace_sink and
   Profile.sinks, composed event by event. *)
let reference_capture ~program ~workload ~words ~seed =
  let trace = Trace.create () in
  let profiles, p = Profile.sinks ~program in
  let t = Engine.trace_sink trace in
  let sink =
    {
      Engine.on_exec =
        (fun ~image ~block -> t.on_exec ~image ~block; p.on_exec ~image ~block);
      on_arc = (fun ~image ~arc -> t.on_arc ~image ~arc; p.on_arc ~image ~arc);
      on_invocation_start = (fun c -> t.on_invocation_start c; p.on_invocation_start c);
      on_invocation_end = (fun () -> t.on_invocation_end (); p.on_invocation_end ());
    }
  in
  let stats = Engine.run ~program ~workload ~words ~seed ~sink in
  (trace, stats, profiles)

let raw_events t = Array.init (Trace.length t) (Trace.raw t)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_profile (a : Profile.t) (b : Profile.t) =
  let same_array x y = Array.length x = Array.length y && Array.for_all2 same_bits x y in
  same_array a.Profile.block b.Profile.block
  && same_array a.Profile.arc b.Profile.arc
  && same_bits a.Profile.total_blocks b.Profile.total_blocks
  && same_bits a.Profile.invocations b.Profile.invocations

(* Profile.capture feeds one engine run to both the trace buffer and the
   per-image profiles: each sees the whole stream. *)
let test_engine_combine_sinks () =
  let m = model () in
  let pairs = Workload.standard_programs m in
  let w, p = pairs.(0) in
  let trace, stats, profiles =
    Profile.capture ~program:p ~workload:w ~words:30_000 ~seed:3
  in
  let alone, alone_stats =
    Engine.capture ~program:p ~workload:w ~words:30_000 ~seed:3
  in
  check_bool "same trace as Engine.capture" true
    (Trace.events_to_list trace = Trace.events_to_list alone);
  check_bool "same stats as Engine.capture" true (stats = alone_stats);
  let counts =
    Array.map
      (fun (pr : Profile.t) -> Array.make (Array.length pr.Profile.block) 0.0)
      profiles
  in
  Trace.iter_exec trace (fun ~image ~block ->
      counts.(image).(block) <- counts.(image).(block) +. 1.0);
  Array.iteri
    (fun image (pr : Profile.t) ->
      check_bool "profile counts the traced executions" true
        (pr.Profile.block = counts.(image)))
    profiles;
  check_float "profile saw the invocations"
    (float_of_int (Array.fold_left ( + ) 0 stats.Engine.invocations))
    profiles.(Program.os_image).Profile.invocations;
  (* Arcs: every OS invocation runs to completion, so each executed
     non-exit kernel block left through exactly one counted arc.  An
     application walk may be paused inside a block's callee, so there an
     execution can still lack its arc, never the reverse. *)
  Array.iteri
    (fun image (pr : Profile.t) ->
      let g = Program.graph p image in
      for b = 0 to Graph.block_count g - 1 do
        let out = Graph.out_arcs g b in
        if Array.length out > 0 then begin
          let left = Array.fold_left (fun acc a -> acc +. pr.Profile.arc.(a)) 0.0 out in
          if Program.is_os image then
            check_float (Printf.sprintf "kernel block %d: arcs = executions" b)
              pr.Profile.block.(b) left
          else if left > pr.Profile.block.(b) then
            Alcotest.failf "image %d block %d: %g arcs out of %g executions" image b
              left pr.Profile.block.(b)
        end
      done)
    profiles;
  let _, _, reference = reference_capture ~program:p ~workload:w ~words:30_000 ~seed:3 in
  check_bool "arcs, blocks and totals equal the reference sinks" true
    (Array.for_all2 same_profile profiles reference)

(* The fused capture sink equals the composed reference bit for bit:
   raw events, stats, and every profile's arrays and totals. *)
let prop_fused_capture_matches_reference =
  QCheck.Test.make ~name:"fused capture = reference" ~count:12
    QCheck.(
      make
        ~print:(fun (s, w, words, seed) ->
          Printf.sprintf "spec seed %d, workload %d, %d words, engine seed %d" s w words seed)
        Gen.(quad (0 -- 10_000) (0 -- 3) (2_000 -- 60_000) (0 -- 1_000)))
    (fun (spec_seed, which, words, seed) ->
      let model = Generator.generate (Spec.with_seed Spec.small spec_seed) in
      let workload, program = (Workload.standard_programs model).(which) in
      let t1, s1, p1 = Profile.capture ~program ~workload ~words ~seed in
      let t2, s2, p2 = reference_capture ~program ~workload ~words ~seed in
      raw_events t1 = raw_events t2
      && s1 = s2
      && Array.length p1 = Array.length p2
      && Array.for_all2 same_profile p1 p2)

(* ------------------------------------------------------------------ *)
(* Capture allocation                                                 *)
(* ------------------------------------------------------------------ *)

(* Minor words per exec event of a whole capture, setup included (the
   trace buffer and count arrays are large enough to go straight to the
   major heap). *)
let minor_words_per_exec f =
  let before = Gc.minor_words () in
  let traces = f () in
  let words = Gc.minor_words () -. before in
  words /. float_of_int (List.fold_left (fun acc t -> acc + Trace.exec_count t) 0 traces)

let test_capture_allocation_free () =
  let words = 2_000_000 and seed = 11 in
  Array.iteri
    (fun i ((workload : Workload.t), program) ->
      let check path per_exec =
        check_bool
          (Printf.sprintf "%s, %s: %.3f minor words/exec <= 0.5" workload.Workload.name
             path per_exec)
          true (per_exec <= 0.5)
      in
      check "Profile.capture"
        (minor_words_per_exec (fun () ->
             let t, _, _ = Profile.capture ~program ~workload ~words ~seed:(seed + i) in
             [ t ]));
      check "Engine.capture"
        (minor_words_per_exec (fun () ->
             [ fst (Engine.capture ~program ~workload ~words ~seed:(seed + i)) ]));
      check "Multiproc.run"
        (minor_words_per_exec (fun () ->
             let r =
               Multiproc.run ~program ~workload ~cpus:4 ~words_per_cpu:(words / 4)
                 ~seed:(97 + i) ~xcall_prob:0.25 ()
             in
             Array.to_list (Array.map (fun (c : Multiproc.cpu) -> c.Multiproc.trace) r.Multiproc.cpus))))
    (Workload.standard_programs (Lazy.force default_model))

(* ------------------------------------------------------------------ *)
(* Event-level pins                                                   *)
(* ------------------------------------------------------------------ *)

(* Digests of every event both schedulers emit, with their stats.  The
   goldens see the engines only through rounded miss rates; these pin the
   exact event streams, so any change to an event or to the order of PRNG
   draws breaks them. *)

let add_trace buf t =
  for i = 0 to Trace.length t - 1 do
    Buffer.add_int64_le buf (Int64.of_int (Trace.raw t i))
  done

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let engine_pin which seed =
  let w, p = (Workload.standard_programs (model ())).(which) in
  let trace, s = Engine.capture ~program:p ~workload:w ~words:200_000 ~seed in
  let buf = Buffer.create (8 * Trace.length trace) in
  add_trace buf trace;
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    Printf.sprintf "total=%d os=%d app=%d inv=%s sw=%d" s.Engine.total_words
      s.Engine.os_words s.Engine.app_words (ints s.Engine.invocations)
      s.Engine.context_switches )

let mp_pin ?os_fraction cpus xcall_prob =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i ((w : Workload.t), p) ->
      let w =
        match os_fraction with None -> w | Some f -> { w with Workload.os_fraction = f }
      in
      let r =
        Multiproc.run ~program:p ~workload:w ~cpus ~words_per_cpu:30_000
          ~seed:(5 + i) ~xcall_prob ()
      in
      Buffer.add_string buf (Printf.sprintf "sent=%d;" r.Multiproc.xcalls_sent);
      Array.iter
        (fun (c : Multiproc.cpu) ->
          let s = c.Multiproc.stats in
          add_trace buf c.Multiproc.trace;
          Buffer.add_string buf
            (Printf.sprintf "os=%d app=%d inv=%s forced=%d;" s.Engine.os_words
               s.Engine.app_words (ints s.Engine.invocations) c.Multiproc.forced))
        r.Multiproc.cpus)
    (Workload.standard_programs (model ()));
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_engine_pins () =
  List.iter
    (fun (which, seed, digest, stats) ->
      let d, s = engine_pin which seed in
      let name = Printf.sprintf "workload %d seed %d" which seed in
      check_string (name ^ " stats") stats s;
      check_string (name ^ " events") digest d)
    [
      (0, 3, "abc9a0f027830c460fc6bcb5902f0bd6",
       "total=200778 os=116451 app=84327 inv=272,85,0,11 sw=6");
      (1, 3, "bf812bf859fa557888bb833ccd8dd7ed",
       "total=200141 os=100070 app=100071 inv=144,59,51,9 sw=5");
      (2, 3, "82671d5073cdfb81927778c2bdffed8d",
       "total=200158 os=88066 app=112092 inv=257,79,10,15 sw=7");
      (3, 3, "c4df76906ec15beb5d8db8c75f608c3b",
       "total=200964 os=200964 app=0 inv=54,18,191,9 sw=0");
      (0, 7, "2f229aef35d6290765bde019b1292b5b",
       "total=200017 os=116009 app=84008 inv=267,103,0,18 sw=6");
      (1, 7, "ff739ea728c88bd42618f73d04e9b8a1",
       "total=200273 os=100135 app=100138 inv=192,91,26,23 sw=7");
      (2, 7, "bd97cab46e196946a96d0a85195f3204",
       "total=202205 os=88968 app=113237 inv=264,86,15,14 sw=7");
      (3, 7, "37e66b96dab18692dfd5bf274b59669c",
       "total=200907 os=200907 app=0 inv=106,29,155,11 sw=0");
    ]

let test_mp_pins () =
  let check ?os_fraction (cpus, xcall_prob, digest) =
    check_string
      (Printf.sprintf "%d cpus, xcall_prob %g" cpus xcall_prob)
      digest
      (mp_pin ?os_fraction cpus xcall_prob)
  in
  List.iter check
    [
      (1, 0.0, "9b0f6b52c5c9224a488e8ba9c6355d88");
      (1, 0.5, "7f835ea55bcde0000e01dcacc5180c10");
      (2, 0.0, "9c7c4f75bc0849e3f61460b2075c0db1");
      (2, 0.5, "23c293fb4f31aa0e00ecfd79c2a53adf");
      (4, 0.0, "feb650e68ca2f13b592cd67172e4386f");
      (4, 0.5, "47a9c74c837cc7fae1ea781eb7557210");
    ];
  (* At an OS share near 1 the application is often already ahead, so
     bursts get skipped; a CPU moves to its next instance only after a
     burst that ran. *)
  List.iter (check ~os_fraction:0.97)
    [
      (1, 0.0, "b3f3124ed8b84c1fb1ef1d5844880314");
      (1, 0.5, "c9891d084fa5b900e17ca5201752ae38");
      (2, 0.0, "f6f8f9b287475af5237bcd76854c8727");
      (2, 0.5, "86b66c4ef30e52903802eb604e3826c8");
      (4, 0.0, "41907baba7b0855b5382fb350370cd70");
      (4, 0.5, "3590a65b86881ec7da220645af55259d");
    ]

let () =
  Alcotest.run "workload"
    [
      ( "trace",
        [
          case "roundtrip" test_trace_roundtrip;
          case "capacity growth" test_trace_capacity_growth;
          case "iter_exec" test_trace_iter_exec;
        ] );
      ( "walker",
        [
          case "follows calls" test_walker_follows_call;
          case "loop iterations via override" test_walker_loop_iterations;
          case "active/depth" test_walker_active_depth;
          case "on_arc callback" test_walker_on_arc;
          case "probabilistic split" test_walker_probabilistic_split;
        ] );
      ( "workload",
        [
          case "standard set" test_workloads_standard;
          case "paper characters" test_workload_characters;
          case "focused weights" test_focused_weights;
          case "program images" test_program_images;
          case "max apps" test_program_max_apps;
          case "standard programs" test_standard_programs;
        ] );
      ( "engine",
        [
          case "word budget" test_engine_word_budget;
          case "os fraction" test_engine_os_fraction;
          case "markers balanced" test_engine_invocation_markers_balanced;
          case "determinism" test_engine_determinism;
          case "seed sensitivity" test_engine_seed_changes_trace;
          case "mix respected" test_engine_mix_respected;
          case "context switches" test_engine_context_switches;
          case "trace agrees with stats" test_engine_trace_agrees_with_stats;
          case "shared dispatch block rejected" test_engine_shared_dispatch_rejected;
          case "combine sinks" test_engine_combine_sinks;
          qcheck prop_fused_capture_matches_reference;
          case "capture allocation-free" test_capture_allocation_free;
        ] );
      ( "pins",
        [
          case "engine event streams" test_engine_pins;
          case "multiproc event streams" test_mp_pins;
        ] );
    ]
