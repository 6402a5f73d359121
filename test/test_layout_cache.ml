open Helpers

(* The staged, memoized, parallel layout pipeline must be observationally
   identical to the monolithic uncached construction: for any level,
   geometry and job count, the per-workload `Program_layout.digest`s (the
   exact placement the simulator consumes) must match a build with every
   Layout_cache stage disabled — cold caches, warm caches and
   cross-parameter cache-hit paths included. *)

let digests layouts = Array.map Program_layout.digest layouts

let check_digests name a b =
  Alcotest.(check (array string)) name (digests a) (digests b)

(* Monolithic reference: every stage cache bypassed, strictly sequential. *)
let monolithic ctx ~params level =
  Layout_cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Layout_cache.set_enabled true)
    (fun () -> Levels.build_uncached ctx ~jobs:1 ~params level)

let stage name = List.assoc name (Layout_cache.stage_stats ())

(* --- staged == monolithic over a randomized grid ------------------- *)

let level_gen =
  QCheck.oneofl [ Levels.Base; Levels.CH; Levels.OptS; Levels.OptL; Levels.OptA ]

let prop_staged_equals_monolithic =
  QCheck.Test.make ~count:12 ~name:"staged+cached == monolithic digests"
    QCheck.(
      quad level_gen
        (oneofl [ 2048; 4096; 8192; 16384 ])
        (oneofl [ None; Some 0.25; Some 0.5; Some 1.0 ])
        (oneofl [ 1; 4 ]))
    (fun (level, cache_size, scf_cutoff, jobs) ->
      let ctx = Lazy.force small_context in
      let params = Opt.params ~cache_size ~scf_cutoff () in
      let reference = monolithic ctx ~params level in
      (* Cold staged build (fresh caches), then a warm rebuild that must be
         served entirely from the placement stage. *)
      Layout_cache.clear ();
      let misses0 = (Layout_cache.totals ()).Layout_cache.misses in
      let cold = Levels.build_uncached ctx ~jobs ~params level in
      let cold_misses = (Layout_cache.totals ()).Layout_cache.misses - misses0 in
      let warm = Levels.build_uncached ctx ~jobs ~params level in
      digests reference = digests cold
      && digests cold = digests warm
      (* Base touches no cached stage; every other level must have built
         something into the cold caches. *)
      && (level = Levels.Base || cold_misses > 0))

(* --- cross-parameter sharing: the sweep paths ---------------------- *)

(* A cache-size sweep changes only placement inputs: the sequence and SCF
   stages must be served from cache, and the resulting layouts must still
   equal their monolithic references. *)
let test_geometry_sweep_shares_sequences () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptS);
  let seq0 = stage "sequences" in
  let scf0 = stage "scf" in
  let params = Opt.params ~cache_size:4096 () in
  let swept = Levels.build_uncached ctx ~jobs:1 ~params Levels.OptS in
  let seq1 = stage "sequences" in
  let scf1 = stage "scf" in
  check_int "cache-size sweep builds no new sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  check_bool "cache-size sweep hits the sequence cache" true
    (seq1.Layout_cache.hits > seq0.Layout_cache.hits);
  check_int "cache-size sweep reruns no SCF selection" scf0.Layout_cache.misses
    scf1.Layout_cache.misses;
  check_digests "swept geometry == monolithic" swept (monolithic ctx ~params Levels.OptS)

(* A SelfConfFree-cutoff sweep reruns selection but not sequences. *)
let test_cutoff_sweep_shares_sequences () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptS);
  let seq0 = stage "sequences" in
  let scf0 = stage "scf" in
  let params = Opt.params ~scf_cutoff:(Some 0.25) () in
  let swept = Levels.build_uncached ctx ~jobs:1 ~params Levels.OptS in
  let seq1 = stage "sequences" in
  let scf1 = stage "scf" in
  check_int "cutoff sweep builds no new sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  check_bool "cutoff sweep reruns SCF selection" true
    (scf1.Layout_cache.misses > scf0.Layout_cache.misses);
  check_digests "swept cutoff == monolithic" swept (monolithic ctx ~params Levels.OptS)

(* OptS and OptL share sequences (loop extraction only affects marking and
   placement); OptA's OS placement is OptS's, physically. *)
let test_cross_level_sharing () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  let opt_s = Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptS in
  let seq0 = stage "sequences" in
  let opt_l = Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptL in
  let seq1 = stage "sequences" in
  check_int "OptL reuses OptS's sequences" seq0.Layout_cache.misses
    seq1.Layout_cache.misses;
  check_digests "OptL == its monolithic reference" opt_l
    (monolithic ctx ~params:(Opt.params ()) Levels.OptL);
  let opt_a = Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptA in
  check_bool "OptA's OS placement is physically OptS's" true
    (opt_a.(0).Program_layout.os_map == opt_s.(0).Program_layout.os_map)

(* Base application images are physically shared across workloads and
   levels: the same app appears in several programs, and rebuilding it
   per (workload, level) was pure waste. *)
let test_base_app_maps_shared () =
  let ctx = Lazy.force small_context in
  let base = Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.Base in
  let ch = Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.CH in
  (* Workloads 0 (trfd_4) and 1 (trfd_make) both run the trfd image. *)
  check_bool "same app image shares one map across workloads" true
    (base.(0).Program_layout.app_maps.(0) == base.(1).Program_layout.app_maps.(0));
  check_bool "same app image shares one map across levels" true
    (base.(0).Program_layout.app_maps.(0) == ch.(0).Program_layout.app_maps.(0))

(* --- loop detection under parallelism ------------------------------ *)

(* The old Program_layout.loops_cache was an unsynchronized global ref;
   Layout_cache.loops must hand every domain the same list. *)
let test_loops_race_free () =
  let model = Lazy.force small_model in
  Layout_cache.clear ();
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Program_layout.os_loops model))
  in
  let results = List.map Domain.join domains in
  let canonical = Program_layout.os_loops model in
  List.iteri
    (fun i l ->
      check_bool (Printf.sprintf "domain %d sees the canonical loop list" i) true
        (l == canonical))
    results

(* --- counter invariants (what `icache-opt validate` enforces) ------ *)

let test_counter_invariants () =
  let ctx = Lazy.force small_context in
  Layout_cache.clear ();
  ignore (Levels.build_uncached ctx ~jobs:4 ~params:(Opt.params ()) Levels.OptA);
  ignore (Levels.build_uncached ctx ~jobs:1 ~params:(Opt.params ()) Levels.OptA);
  List.iter
    (fun (name, (s : Layout_cache.stats)) ->
      check_bool (name ^ ": hits >= 0") true (s.Layout_cache.hits >= 0);
      check_bool (name ^ ": misses >= 0") true (s.Layout_cache.misses >= 0);
      check_bool (name ^ ": seconds >= 0") true (s.Layout_cache.seconds >= 0.0);
      check_bool (name ^ ": registry lookups = hits + misses") true
        (Metrics_registry.find_counter ("layout_cache." ^ name ^ ".lookups")
        = Some (s.Layout_cache.hits + s.Layout_cache.misses)))
    (Layout_cache.stage_stats ());
  let t = Layout_cache.totals () in
  let by_stage =
    List.fold_left
      (fun (h, m) (_, (s : Layout_cache.stats)) ->
        (h + s.Layout_cache.hits, m + s.Layout_cache.misses))
      (0, 0) (Layout_cache.stage_stats ())
  in
  check_int "totals.hits = sum of stage hits" (fst by_stage) t.Layout_cache.hits;
  check_int "totals.misses = sum of stage misses" (snd by_stage) t.Layout_cache.misses

let () =
  Alcotest.run "layout_cache"
    [
      ( "equivalence",
        [
          qcheck prop_staged_equals_monolithic;
          case "cache-size sweep shares sequences" test_geometry_sweep_shares_sequences;
          case "cutoff sweep shares sequences" test_cutoff_sweep_shares_sequences;
          case "cross-level sharing (OptS/OptL/OptA)" test_cross_level_sharing;
          case "base app maps shared across workloads/levels"
            test_base_app_maps_shared;
        ] );
      ( "concurrency",
        [
          case "loop detection race-free" test_loops_race_free;
          case "counter invariants" test_counter_invariants;
        ] );
    ]
