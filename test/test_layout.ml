open Helpers

let small_ctx () = Lazy.force small_context

(* ------------------------------------------------------------------ *)
(* Address_map                                                        *)
(* ------------------------------------------------------------------ *)

let test_address_map_place () =
  let d = diamond () in
  let m = Address_map.create d.g in
  check_bool "not placed" false (Address_map.is_placed m d.entry);
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Main_seq;
  check_bool "placed" true (Address_map.is_placed m d.entry);
  check_int "addr" 0 (Address_map.addr m d.entry);
  check_bool "region" true (Address_map.region m d.entry = Address_map.Main_seq);
  check_int "extent is end of block" 16 (Address_map.extent m);
  check_int "placed count" 1 (Address_map.placed_count m)

let test_address_map_errors () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  check_raises_invalid "double placement" (fun () ->
      Address_map.place m d.entry ~addr:64 ~region:Address_map.Cold);
  check_raises_invalid "negative address" (fun () ->
      Address_map.place m d.a ~addr:(-4) ~region:Address_map.Cold);
  check_raises_invalid "unplaced addr query" (fun () -> Address_map.addr m d.a)

let test_address_map_validate_missing () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  match Address_map.validate m with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "validate must reject incomplete maps"

let test_address_map_validate_overlap () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:0 ~region:Address_map.Cold;
  (* entry is 16 bytes; placing the next block at 8 overlaps. *)
  Address_map.place m d.a ~addr:8 ~region:Address_map.Cold;
  Address_map.place m d.b ~addr:100 ~region:Address_map.Cold;
  Address_map.place m d.exit_ ~addr:200 ~region:Address_map.Cold;
  match Address_map.validate m with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "validate must reject overlaps"

let test_address_map_blocks_by_addr () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.exit_ ~addr:0 ~region:Address_map.Cold;
  Address_map.place m d.entry ~addr:50 ~region:Address_map.Cold;
  Alcotest.(check (array int)) "sorted by address" [| d.exit_; d.entry |]
    (Address_map.blocks_by_addr m)

let test_address_map_arrays () =
  let d = diamond () in
  let m = Address_map.create d.g in
  Address_map.place m d.entry ~addr:32 ~region:Address_map.Cold;
  let addr = Address_map.addr_array m in
  check_int "addr exported" 32 addr.(d.entry);
  check_int "unplaced exported as -1" (-1) addr.(d.a);
  let bytes = Address_map.bytes_array m in
  check_int "sizes exported" 16 bytes.(d.entry)

(* Random small maps over a one-routine graph: sometimes packed without
   overlap (a random order with random gaps), sometimes scattered over a
   narrow range so blocks often collide, and sometimes with blocks left
   unplaced. *)
let random_map_gen =
  QCheck.Gen.(
    let* sizes = list_size (1 -- 12) (1 -- 16) in
    let n = List.length sizes in
    let* packed = bool in
    let* order = shuffle_l (List.init n Fun.id) in
    let* gaps = list_repeat n (0 -- 8) in
    let* scattered = list_repeat n (0 -- (4 * n)) in
    let* unplaced = list_repeat n (frequencyl [ (9, false); (1, true) ]) in
    let sizes = Array.of_list sizes in
    let addr = Array.make n 0 in
    if packed then
      ignore
        (List.fold_left2
           (fun at b gap ->
             addr.(b) <- at + gap;
             at + gap + sizes.(b))
           0 order gaps)
    else List.iteri (fun b a -> addr.(b) <- a) scattered;
    let placed = Array.of_list (List.map not unplaced) in
    return (sizes, addr, placed))

let print_map (sizes, addr, placed) =
  String.concat " "
    (List.init (Array.length sizes) (fun b ->
         if placed.(b) then Printf.sprintf "%d@%d+%d" b addr.(b) sizes.(b)
         else Printf.sprintf "%d:unplaced" b))

let prop_validate_matches_pairwise =
  QCheck.Test.make ~count:500
    ~name:"validate raises iff blocks overlap; blocks_by_addr is a stably sorted permutation"
    (QCheck.make ~print:print_map random_map_gen)
    (fun (sizes, addr, placed) ->
      let n = Array.length sizes in
      let bld = Graph.builder () in
      let r = Graph.declare_routine bld "r" in
      Array.iter (fun size -> ignore (Graph.add_block bld ~routine:r ~size ())) sizes;
      let m = Address_map.create (Graph.freeze bld) in
      Array.iteri
        (fun b a -> if placed.(b) then Address_map.place m b ~addr:a ~region:Address_map.Cold)
        addr;
      let ids = List.filter (fun b -> placed.(b)) (List.init n Fun.id) in
      let overlap =
        List.exists
          (fun i ->
            List.exists
              (fun j -> i < j && addr.(i) < addr.(j) + sizes.(j) && addr.(j) < addr.(i) + sizes.(i))
              ids)
          ids
      in
      let raised = match Address_map.validate m with () -> false | exception Failure _ -> true in
      let by_addr = Array.to_list (Address_map.blocks_by_addr m) in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            (addr.(a) < addr.(b) || (addr.(a) = addr.(b) && a < b)) && sorted rest
        | [ _ ] | [] -> true
      in
      raised = (overlap || List.length ids < n)
      && List.sort compare by_addr = ids
      && sorted by_addr)

(* ------------------------------------------------------------------ *)
(* Base layout                                                        *)
(* ------------------------------------------------------------------ *)

let test_base_layout () =
  let lc = loop_call () in
  let m = Base.layout lc.g ~order:[| lc.callee; lc.caller |] in
  Address_map.validate m;
  check_int "l0 first" 0 (Address_map.addr m lc.l0);
  check_int "l1 second" 16 (Address_map.addr m lc.l1);
  check_int "caller after callee" 32 (Address_map.addr m lc.c0);
  check_int "text order inside routine" 48 (Address_map.addr m lc.c1);
  check_int "extent" (7 * 16) (Address_map.extent m)

let test_base_layout_order_matters () =
  let lc = loop_call () in
  let m = Base.layout lc.g ~order:[| lc.caller; lc.callee |] in
  check_int "caller first now" 0 (Address_map.addr m lc.c0);
  check_int "callee last" (5 * 16) (Address_map.addr m lc.l0)

let test_base_layout_invalid_order () =
  let lc = loop_call () in
  check_raises_invalid "not a permutation" (fun () ->
      Base.layout lc.g ~order:[| lc.caller; lc.caller |]);
  check_raises_invalid "wrong length" (fun () ->
      Base.layout lc.g ~order:[| lc.caller |])

(* ------------------------------------------------------------------ *)
(* Schedule                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_paper () =
  let passes = Schedule.paper in
  check_bool "non-empty" true (List.length passes > 10);
  (match passes with
  | first :: _ ->
      check_bool "first seed is interrupt" true
        (first.Schedule.service = Service.Interrupt);
      check_close 1e-9 "ExecThresh 1.4%" 0.014 first.Schedule.exec_thresh;
      check_close 1e-9 "BranchThresh 40%" 0.4 first.Schedule.branch_thresh
  | [] -> Alcotest.fail "empty schedule");
  Array.iter
    (fun s ->
      let mine = List.filter (fun p -> p.Schedule.service = s) passes in
      check_bool "every seed appears" true (mine <> []);
      let last = List.nth mine (List.length mine - 1) in
      check_close 1e-9 "final ExecThresh 0" 0.0 last.Schedule.exec_thresh;
      check_close 1e-9 "final BranchThresh 0" 0.0 last.Schedule.branch_thresh;
      ignore
        (List.fold_left
           (fun prev p ->
             check_bool "ExecThresh decreasing" true
               (p.Schedule.exec_thresh <= prev +. 1e-12);
             p.Schedule.exec_thresh)
           1.0 mine))
    Service.all

let test_schedule_uniform () =
  (* Application schedules have a single seed: one pass per level. *)
  let passes = Schedule.uniform ~levels:[ (0.01, 0.1); (0.0, 0.0) ] in
  check_int "one pass per level" 2 (List.length passes)

(* ------------------------------------------------------------------ *)
(* Sequence construction: the paper's Figure 9 worked example          *)
(* ------------------------------------------------------------------ *)

let test_sequence_figure9_golden () =
  let r = Exp_fig9.compute () in
  Alcotest.(check (list string))
    "pass (0.01, 0.1) places blocks exactly as the paper"
    Exp_fig9.expected_pass1 r.Exp_fig9.pass1;
  Alcotest.(check (list string))
    "pass (0, 0) places the cold leftovers"
    Exp_fig9.expected_pass2 r.Exp_fig9.pass2

let test_sequence_no_duplicates_kernel () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let seqs =
    Sequence.build ~graph:g ~profile:ctx.Context.avg_os_profile
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:Schedule.paper ()
  in
  let seen = Array.make (Graph.block_count g) false in
  List.iter
    (fun (s : Sequence.t) ->
      Array.iter
        (fun b ->
          if seen.(b) then Alcotest.failf "block %d appears in two sequences" b;
          seen.(b) <- true)
        s.Sequence.blocks)
    seqs;
  List.iter
    (fun (s : Sequence.t) ->
      let sum =
        Array.fold_left
          (fun acc b -> acc + (Graph.block g b).Block.size)
          0 s.Sequence.blocks
      in
      check_int "sequence byte count" sum s.Sequence.bytes)
    seqs;
  check_int "total bytes"
    (List.fold_left (fun acc (s : Sequence.t) -> acc + s.Sequence.bytes) 0 seqs)
    (Sequence.total_bytes seqs);
  let covered = Sequence.covered g seqs in
  Array.iteri
    (fun b s -> check_bool "covered agrees with membership" s covered.(b))
    seen

let test_sequence_threshold_excludes_cold () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let p = ctx.Context.avg_os_profile in
  let seqs =
    Sequence.build ~graph:g ~profile:p
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:
        (List.map
           (fun s ->
             { Schedule.service = s; exec_thresh = 0.001; branch_thresh = 0.1 })
           (Array.to_list Service.all))
      ()
  in
  let seed_entries =
    Array.to_list
      (Array.map (fun s -> (Model.seed_for model s).Model.entry) Service.all)
  in
  List.iter
    (fun (s : Sequence.t) ->
      Array.iter
        (fun b ->
          (* Seeds themselves are emitted unconditionally. *)
          if Profile.block_fraction p b < 0.001 && not (List.mem b seed_entries)
          then Alcotest.failf "cold block %d admitted above ExecThresh" b)
        s.Sequence.blocks)
    seqs

let test_sequence_seed_first () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let g = Context.os_graph ctx in
  let entry = (Model.seed_for model Service.Interrupt).Model.entry in
  let seqs =
    Sequence.build ~graph:g ~profile:ctx.Context.avg_os_profile
      ~seed_entry:(fun c -> (Model.seed_for model c).Model.entry)
      ~schedule:Schedule.paper ()
  in
  match seqs with
  | first :: _ ->
      check_int "the first sequence starts at the interrupt seed" entry
        first.Sequence.blocks.(0)
  | [] -> Alcotest.fail "no sequences built"

(* ------------------------------------------------------------------ *)
(* SelfConfFree selection                                             *)
(* ------------------------------------------------------------------ *)

(* The loop_call profile again: 10 invocations, 3 iterations each. *)
let scf_profile (lc : loop_call) =
  let arcs b = Array.to_list (Graph.out_arcs lc.g b) in
  let arc_between src dst =
    List.find (fun a -> (Graph.arc lc.g a).Arc.dst = dst) (arcs src)
  in
  profile_of lc.g
    [
      (lc.c0, 10.0); (lc.c1, 30.0); (lc.c2, 30.0); (lc.c3, 30.0); (lc.c4, 10.0);
      (lc.l0, 30.0); (lc.l1, 30.0);
    ]
    [
      (arc_between lc.c0 lc.c1, 10.0);
      (arc_between lc.c1 lc.c2, 30.0);
      (arc_between lc.c2 lc.c3, 30.0);
      (lc.back_edge, 20.0);
      (arc_between lc.c3 lc.c4, 10.0);
      (arc_between lc.l0 lc.l1, 30.0);
    ]

let test_scf_loop_discount () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let loops = Loops.find lc.g in
  (* No invocation data: the cutoff is a fraction of the adjusted total
     (110); the callee blocks (30/110 each) dominate because loop bodies
     are discounted to 10. *)
  let hot = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.25 in
  check_bool "only the callee blocks qualify" true
    (List.sort compare hot = List.sort compare [ lc.l0; lc.l1 ]);
  let all = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.05 in
  check_int "everything qualifies at 5%" 7 (List.length all);
  (match all with
  | first :: _ ->
      check_bool "most popular first" true (first = lc.l0 || first = lc.l1)
  | [] -> Alcotest.fail "empty");
  check_int "bytes" 32 (Scf.bytes lc.g hot)

let test_scf_invocation_relative () =
  let lc = loop_call () in
  let p = scf_profile lc in
  p.Profile.invocations <- 10.0;
  let loops = Loops.find lc.g in
  (* Per-invocation rates: c0/c4 = 1, loop body adjusted = 1, callee = 3. *)
  let hot = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:2.0 in
  check_bool "only callee reaches 2 per invocation" true
    (List.sort compare hot = List.sort compare [ lc.l0; lc.l1 ]);
  let every = Scf.select ~graph:lc.g ~profile:p ~loops ~cutoff:0.9 in
  check_int "all blocks execute about once per invocation" 7 (List.length every)

let test_scf_kernel_area_size () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let hot =
    Scf.select ~graph:g ~profile:ctx.Context.avg_os_profile
      ~loops:(Context.os_loops ctx) ~cutoff:0.5
  in
  let bytes = Scf.bytes g hot in
  check_bool "default cutoff yields a usable area" true
    (bytes > 100 && bytes < 4096)

(* ------------------------------------------------------------------ *)
(* Opt layouts                                                        *)
(* ------------------------------------------------------------------ *)

let os_opt ?(params = Opt.params ()) ?(extract_loops = false) ctx =
  let model = ctx.Context.model in
  Opt.os_layout ~model ~profile:ctx.Context.avg_os_profile
    ~loops:(Context.os_loops ctx)
    { params with Opt.extract_loops }

let test_opt_s_valid_and_regions () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  Address_map.validate r.Opt.map;
  check_int "every block placed" (Graph.block_count g)
    (Address_map.placed_count r.Opt.map);
  check_bool "scf area non-empty" true (r.Opt.scf_bytes > 0);
  List.iter
    (fun b ->
      check_bool "scf block below scf_bytes" true
        (Address_map.addr r.Opt.map b < r.Opt.scf_bytes);
      check_bool "scf region" true
        (Address_map.region r.Opt.map b = Address_map.Self_conf_free))
    r.Opt.scf_blocks;
  check_int "scf bytes consistent" (Scf.bytes g r.Opt.scf_blocks) r.Opt.scf_bytes

let test_opt_s_holes_cold_only () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  let cache = (Opt.params ()).Opt.cache_size in
  let hole = r.Opt.scf_bytes in
  Graph.iter_blocks g (fun blk ->
      let b = blk.Block.id in
      let addr = Address_map.addr r.Opt.map b in
      let chunk = addr / cache in
      let off = addr mod cache in
      if chunk >= 1 && off < hole then
        match Address_map.region r.Opt.map b with
        | Address_map.Cold -> ()
        | region ->
            Alcotest.failf "hot block %d (%s) placed inside a hole" b
              (Address_map.region_to_string region))

let test_opt_s_hot_sequences_early () =
  let ctx = small_ctx () in
  let r = os_opt ctx in
  let g = Context.os_graph ctx in
  let sum_main = ref 0.0
  and n_main = ref 0
  and sum_other = ref 0.0
  and n_other = ref 0 in
  Graph.iter_blocks g (fun blk ->
      let b = blk.Block.id in
      match Address_map.region r.Opt.map b with
      | Address_map.Main_seq ->
          sum_main := !sum_main +. float_of_int (Address_map.addr r.Opt.map b);
          incr n_main
      | Address_map.Other_seq ->
          sum_other := !sum_other +. float_of_int (Address_map.addr r.Opt.map b);
          incr n_other
      | Address_map.Self_conf_free | Address_map.Loop_area | Address_map.Cold -> ());
  check_bool "main sequences exist" true (!n_main > 0);
  check_bool "other sequences exist" true (!n_other > 0);
  check_bool "main sequences placed lower" true
    (!sum_main /. float_of_int !n_main < !sum_other /. float_of_int !n_other)

let test_opt_l_extracts_loops () =
  let ctx = small_ctx () in
  let r = os_opt ~extract_loops:true ctx in
  Address_map.validate r.Opt.map;
  check_bool "loop blocks extracted" true (r.Opt.loop_blocks <> []);
  List.iter
    (fun b ->
      check_bool "loop region" true
        (Address_map.region r.Opt.map b = Address_map.Loop_area))
    r.Opt.loop_blocks

let test_opt_no_scf () =
  let ctx = small_ctx () in
  let r = os_opt ~params:(Opt.params ~scf_cutoff:None ()) ctx in
  Address_map.validate r.Opt.map;
  check_int "no scf blocks" 0 (List.length r.Opt.scf_blocks);
  check_int "no scf bytes" 0 r.Opt.scf_bytes

let test_opt_app_layout () =
  let ctx = small_ctx () in
  let app = (snd ctx.Context.pairs.(0)).Program.apps.(0) in
  let profile = ctx.Context.avg_app_profile app in
  let r = Opt.app_layout ~app ~profile (Opt.params ()) in
  Address_map.validate r.Opt.map;
  check_int "no scf area for applications" 0 r.Opt.scf_bytes;
  let entry = Graph.entry_of app.App_model.graph app.App_model.main in
  check_bool "main entry at the half-cache offset" true
    (Address_map.addr r.Opt.map entry >= 4096)

let test_opt_app_stagger () =
  let ctx = small_ctx () in
  let app = (snd ctx.Context.pairs.(0)).Program.apps.(0) in
  let profile = ctx.Context.avg_app_profile app in
  let a = Opt.app_layout ~app ~profile ~stagger:0 (Opt.params ()) in
  let b = Opt.app_layout ~app ~profile ~stagger:1 (Opt.params ()) in
  let entry = Graph.entry_of app.App_model.graph app.App_model.main in
  check_bool "staggered images differ" true
    (Address_map.addr a.Opt.map entry <> Address_map.addr b.Opt.map entry)

(* A SelfConfFree hole that leaves no room for a block in the rest of
   the logical cache used to send the cursor skipping forever. *)
let test_opt_hole_too_large () =
  let contains s sub =
    let n = String.length sub in
    let rec from i = i + n <= String.length s && (String.sub s i n = sub || from (i + 1)) in
    from 0
  in
  let ctx = small_ctx () in
  let params = Opt.params ~cache_size:1024 ~scf_cutoff:(Some 0.1) () in
  match os_opt ~params ctx with
  | exception Invalid_argument msg ->
      check_bool "message names the cache size" true
        (contains msg "1024-byte logical cache")
  | _ -> Alcotest.fail "expected Invalid_argument for a hole that leaves no room"

(* Reference placement: the original list-based construction (a cursor
   that records skipped holes in a list, a polymorphic sort of the cold
   blocks by (weight, id), first-fit over a rebuilt hole list), re-placing
   from the stage outputs a result records. *)
let reference_place ~graph:g ~profile:p (params : Opt.params) (r : Opt.result) =
  let size b = (Graph.block g b).Block.size in
  let map = Address_map.create g in
  List.fold_left
    (fun at b ->
      Address_map.place map b ~addr:at ~region:Address_map.Self_conf_free;
      at + size b)
    params.Opt.start_offset r.Opt.scf_blocks
  |> ignore;
  let cache = params.Opt.cache_size in
  let hole = if params.Opt.scf_holes then r.Opt.scf_bytes else 0 in
  let at = ref (params.Opt.start_offset + r.Opt.scf_bytes) and skipped = ref [] in
  let rec fit size =
    let off = !at mod cache in
    if hole > 0 && !at >= cache && off < hole then begin
      let start = !at - off in
      if not (List.mem_assoc start !skipped) then skipped := (start, hole) :: !skipped;
      at := start + hole;
      fit size
    end
    else if hole > 0 && off + size > cache then begin
      at := !at - off + cache;
      fit size
    end
    else begin
      let a = !at in
      at := a + size;
      a
    end
  in
  let mem l b = List.mem b l in
  List.iter
    (fun (s : Sequence.t) ->
      let region =
        if s.Sequence.pass.Schedule.exec_thresh >= Schedule.main_seq_exec_thresh then
          Address_map.Main_seq
        else Address_map.Other_seq
      in
      Array.iter
        (fun b ->
          if not (mem r.Opt.scf_blocks b || mem r.Opt.loop_blocks b) then
            Address_map.place map b ~addr:(fit (size b)) ~region)
        s.Sequence.blocks)
    r.Opt.sequences;
  List.iter
    (fun b -> Address_map.place map b ~addr:(fit (size b)) ~region:Address_map.Loop_area)
    r.Opt.loop_blocks;
  let coldest =
    List.sort
      (fun a b -> compare (p.Profile.block.(a), a) (p.Profile.block.(b), b))
      (List.filter
         (fun b -> not (Address_map.is_placed map b))
         (List.init (Graph.block_count g) Fun.id))
  in
  let holes = ref (List.rev !skipped) in
  List.iter
    (fun b ->
      let rec try_holes acc = function
        | [] ->
            holes := List.rev acc;
            Address_map.place map b ~addr:(fit (size b)) ~region:Address_map.Cold
        | (start, avail) :: rest when avail >= size b ->
            Address_map.place map b ~addr:start ~region:Address_map.Cold;
            holes := List.rev_append acc ((start + size b, avail - size b) :: rest)
        | h :: rest -> try_holes (h :: acc) rest
      in
      try_holes [] !holes)
    coldest;
  map

(* Schedules cut off at ExecThresh 0.01% leave executed blocks to the
   cold filler, so it sorts a mix of zero and non-zero weights. *)
let prop_placement_matches_reference =
  QCheck.Test.make ~count:40 ~name:"array placement == list-based reference"
    QCheck.(
      pair
        (quad (oneofl [ 4; 8; 16; 32 ])
           (oneofl [ None; Some 0.1; Some 0.25; Some 0.5; Some 1.0; Some 2.0 ])
           bool bool)
        (triple (int_bound 3) bool (int_bound 4095)))
    (fun ((size_kb, scf_cutoff, extract_loops, scf_holes), (image, warm_cold, offset)) ->
      let ctx = small_ctx () in
      let params =
        Opt.params ~cache_size:(size_kb * 1024) ~scf_cutoff ~extract_loops ~scf_holes ()
      in
      let final = if warm_cold then List.filter (fun p -> p.Schedule.exec_thresh >= 1e-4) else Fun.id in
      let graph, profile, r, params =
        if image = 0 then
          let model = ctx.Context.model and profile = ctx.Context.avg_os_profile in
          ( model.Model.graph,
            profile,
            Opt.os_layout ~schedule:(final Schedule.paper) ~model ~profile
              ~loops:(Context.os_loops ctx) params,
            params )
        else begin
          (* An application image, as OptA places it: no SelfConfFree
             area, [main] as the only seed, loops extracted, sequences
             from a non-zero start offset. *)
          let apps =
            Array.concat
              (Array.to_list (Array.map (fun (_, p) -> p.Program.apps) ctx.Context.pairs))
          in
          let app = apps.((image - 1) mod Array.length apps) in
          let graph = app.App_model.graph in
          let profile = ctx.Context.avg_app_profile app in
          let params =
            { params with Opt.scf_cutoff = None; extract_loops = true; start_offset = offset }
          in
          let entry = Graph.entry_of graph app.App_model.main in
          ( graph,
            profile,
            Opt.layout ~graph ~profile ~loops:(Layout_cache.loops graph)
              ~seed_entry:(fun _ -> entry)
              ~schedule:(final (Schedule.uniform ~levels:[ (1e-3, 0.4); (1e-5, 0.01); (0.0, 0.0) ]))
              params,
            params )
        end
      in
      let expected = reference_place ~graph ~profile params r in
      let regions m = Array.init (Graph.block_count graph) (Address_map.region m) in
      Address_map.addr_array r.Opt.map = Address_map.addr_array expected
      && regions r.Opt.map = regions expected)

(* The placement stage, rebuilt for a new cache size with every sub-stage
   warm, allocates a bounded number of minor words per block: no lists,
   no boxed sort keys. *)
let test_place_allocation_bounded () =
  let ctx = small_ctx () in
  let blocks = float_of_int (Graph.block_count (Context.os_graph ctx)) in
  Layout_cache.clear ();
  ignore (os_opt ctx);
  List.iter
    (fun size_kb ->
      let place () = (List.assoc "place" (Layout_cache.stage_stats ())).Layout_cache.misses in
      let misses = place () in
      let before = Gc.minor_words () in
      ignore (os_opt ~params:(Opt.params ~cache_size:(size_kb * 1024) ()) ctx);
      let words = (Gc.minor_words () -. before) /. blocks in
      check_int (Printf.sprintf "%d KB: one place build" size_kb) (misses + 1) (place ());
      check_bool
        (Printf.sprintf "%d KB: %.1f minor words/block <= 20" size_kb words)
        true (words <= 20.0))
    [ 4; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Chang-Hwu                                                          *)
(* ------------------------------------------------------------------ *)

let test_chang_hwu_intra_order () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let order = Chang_hwu.intra_routine_order lc.g p (Graph.routine lc.g lc.caller) in
  check_int "all blocks present" 5 (List.length order);
  (match order with
  | first :: _ -> check_int "entry first" lc.c0 first
  | [] -> Alcotest.fail "empty order");
  check_int "no duplicates" 5 (List.length (List.sort_uniq compare order))

let test_chang_hwu_callee_follows_caller () =
  let lc = loop_call () in
  let p = scf_profile lc in
  let order = Chang_hwu.routine_order lc.g p in
  check_bool "caller then callee" true (order = [ lc.caller; lc.callee ])

let test_chang_hwu_layout_valid () =
  let ctx = small_ctx () in
  let g = Context.os_graph ctx in
  let m = Chang_hwu.layout g ctx.Context.avg_os_profile in
  Address_map.validate m;
  check_int "all blocks placed" (Graph.block_count g) (Address_map.placed_count m)

let test_chang_hwu_separates_cold () =
  let d = diamond () in
  let p =
    profile_of d.g
      [ (d.entry, 10.0); (d.a, 10.0); (d.exit_, 10.0) ]
      [ (d.arc_ea, 10.0); (d.arc_ax, 10.0) ]
  in
  let order = Chang_hwu.intra_routine_order d.g p (Graph.routine d.g d.routine) in
  match List.rev order with
  | last :: _ -> check_int "unexecuted block last" d.b last
  | [] -> Alcotest.fail "empty order"

(* ------------------------------------------------------------------ *)
(* Call_opt (Section 4.4)                                             *)
(* ------------------------------------------------------------------ *)

let test_call_opt_valid () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let r, stats = Call_opt.layout ~model ~profile:ctx.Context.avg_os_profile () in
  Address_map.validate r.Opt.map;
  check_bool "matrix routines bounded" true (stats.Call_opt.matrix_routines <= 50);
  if stats.Call_opt.extracted_blocks > 0 then begin
    let g = Context.os_graph ctx in
    let extracted = ref 0 in
    Graph.iter_blocks g (fun blk ->
        if Address_map.region r.Opt.map blk.Block.id = Address_map.Loop_area then
          incr extracted);
    check_bool "loop-area blocks exist" true (!extracted > 0)
  end

let test_call_opt_max_matrix () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let _, stats =
    Call_opt.layout ~model ~profile:ctx.Context.avg_os_profile
      ~max_matrix_routines:3 ()
  in
  check_bool "matrix capped" true (stats.Call_opt.matrix_routines <= 3)

(* ------------------------------------------------------------------ *)
(* Program_layout                                                     *)
(* ------------------------------------------------------------------ *)

let test_program_layout_levels () =
  let ctx = small_ctx () in
  Array.iter
    (fun level ->
      let layouts = Levels.build ctx level in
      check_int "one layout per workload" (Context.workload_count ctx)
        (Array.length layouts);
      Array.iter
        (fun (l : Program_layout.t) ->
          Address_map.validate l.Program_layout.os_map;
          Array.iter Address_map.validate l.Program_layout.app_maps)
        layouts)
    Levels.all

let test_program_layout_code_map () =
  let ctx = small_ctx () in
  let layouts = Levels.build ctx Levels.Base in
  let with_apps =
    Array.to_list layouts
    |> List.find (fun (l : Program_layout.t) ->
           Array.length l.Program_layout.app_maps > 0)
  in
  let cm = Program_layout.code_map with_apps in
  check_int "one address table per image"
    (1 + Array.length with_apps.Program_layout.app_maps)
    (Array.length cm.Replay.addr);
  let os_min = Array.fold_left min max_int cm.Replay.addr.(0) in
  check_int "OS at address 0" 0 os_min;
  let app_min = Array.fold_left min max_int cm.Replay.addr.(1) in
  check_bool "apps in their own region" true
    (app_min >= Program_layout.app_region_base)

let test_program_layout_os_loops_memoized () =
  let ctx = small_ctx () in
  let model = ctx.Context.model in
  let a = Program_layout.os_loops model in
  let b = Program_layout.os_loops model in
  check_bool "same physical list" true (a == b)

let () =
  Alcotest.run "layout"
    [
      ( "address_map",
        [
          case "place" test_address_map_place;
          case "errors" test_address_map_errors;
          case "validate missing" test_address_map_validate_missing;
          case "validate overlap" test_address_map_validate_overlap;
          case "blocks_by_addr" test_address_map_blocks_by_addr;
          case "arrays" test_address_map_arrays;
          qcheck prop_validate_matches_pairwise;
        ] );
      ( "base",
        [
          case "layout" test_base_layout;
          case "order matters" test_base_layout_order_matters;
          case "invalid order" test_base_layout_invalid_order;
        ] );
      ( "schedule",
        [ case "paper" test_schedule_paper; case "uniform" test_schedule_uniform ] );
      ( "sequence",
        [
          case "figure 9 golden" test_sequence_figure9_golden;
          case "no duplicates (kernel)" test_sequence_no_duplicates_kernel;
          case "threshold excludes cold" test_sequence_threshold_excludes_cold;
          case "seed first" test_sequence_seed_first;
        ] );
      ( "scf",
        [
          case "loop discount" test_scf_loop_discount;
          case "invocation-relative" test_scf_invocation_relative;
          case "kernel area size" test_scf_kernel_area_size;
        ] );
      ( "opt",
        [
          case "OptS valid, regions" test_opt_s_valid_and_regions;
          case "holes hold only cold code" test_opt_s_holes_cold_only;
          case "hot sequences early" test_opt_s_hot_sequences_early;
          case "OptL extracts loops" test_opt_l_extracts_loops;
          case "no SCF" test_opt_no_scf;
          case "app layout" test_opt_app_layout;
          case "app stagger" test_opt_app_stagger;
          case "hole too large for the cache" test_opt_hole_too_large;
          qcheck prop_placement_matches_reference;
          case "place allocation bounded" test_place_allocation_bounded;
        ] );
      ( "chang_hwu",
        [
          case "intra-routine order" test_chang_hwu_intra_order;
          case "callee follows caller" test_chang_hwu_callee_follows_caller;
          case "layout valid" test_chang_hwu_layout_valid;
          case "cold code last" test_chang_hwu_separates_cold;
        ] );
      ( "call_opt",
        [
          case "valid" test_call_opt_valid;
          case "matrix cap" test_call_opt_max_matrix;
        ] );
      ( "program_layout",
        [
          case "levels" test_program_layout_levels;
          case "code map" test_program_layout_code_map;
          case "loop memoization" test_program_layout_os_loops_memoized;
        ] );
    ]
