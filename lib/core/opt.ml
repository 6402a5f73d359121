type params = {
  cache_size : int;
  scf_cutoff : float option;
  extract_loops : bool;
  min_loop_iterations : float;
  start_offset : int;
  scf_holes : bool;
}

let params ?(cache_size = 8192) ?(scf_cutoff = Some 0.5) ?(extract_loops = false)
    ?(scf_holes = true) () =
  {
    cache_size;
    scf_cutoff;
    extract_loops;
    min_loop_iterations = 6.0;
    start_offset = 0;
    scf_holes;
  }

type result = {
  map : Address_map.t;
  sequences : Sequence.t list;
  scf_blocks : Block.id list;
  scf_bytes : int;
  loop_blocks : Block.id list;
}

(* Cursor over memory organized as logical caches of size [cache] whose
   lowest [hole] bytes (beyond the first logical cache) are reserved.
   Records the holes it skips so they can be filled with cold code; [at]
   only grows, so each hole is skipped, and recorded, once. *)
type cursor = {
  cache : int;
  hole : int;
  mutable at : int;
  mutable holes : (int * int) list;  (* (start, size), reverse order *)
}

let cursor ~cache ~hole ~start = { cache; hole; at = start; holes = [] }

let rec fit c size =
  let off = c.at mod c.cache in
  if c.hole > 0 && c.at >= c.cache && off < c.hole then begin
    (* Entering a reserved hole: skip it, remembering the span. *)
    let start = c.at - off in
    c.holes <- (start, c.hole) :: c.holes;
    c.at <- start + c.hole;
    fit c size
  end
  else if c.hole > 0 && off + size > c.cache then begin
    (* Block would run into the next logical cache's hole. *)
    c.at <- c.at - off + c.cache;
    fit c size
  end
  else begin
    let addr = c.at in
    c.at <- addr + size;
    addr
  end

(* ------------------------------------------------------------------ *)
(* Staged construction                                                *)
(* ------------------------------------------------------------------ *)

(* The layout decomposes into stages with strictly shrinking input sets
   (Layout_cache's doc lists them), each memoized on a digest of exactly
   what it consumes.  Registration order below is pipeline order, which
   is also the order Layout_cache.stage_stats reports. *)

module Seq_cache = Layout_cache.Stage (struct
  type value = Sequence.t list

  let name = "sequences"
end)

module Scf_cache = Layout_cache.Stage (struct
  type value = Block.id list

  let name = "scf"
end)

module Loop_mark_cache = Layout_cache.Stage (struct
  type value = Loopstat.info list

  let name = "loop_mark"
end)

module Place_cache = Layout_cache.Stage (struct
  type value = result

  let name = "place"
end)

let digest_key v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Assemble a layout from the (individually cached) stage outputs.  This
   is the original monolithic construction, with sequence construction,
   raw SCF selection and the Loopstat pass factored out so they can be
   shared across parameter sweeps. *)
let assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude params =
  let scf_blocks, scf_bytes =
    match params.scf_cutoff with
    | None -> ([], 0)
    | Some cutoff ->
        let blocks = List.filter (fun b -> not (exclude b)) (select_scf cutoff) in
        (blocks, Scf.bytes g blocks)
  in
  let in_scf = Array.make (Graph.block_count g) false in
  List.iter (fun b -> in_scf.(b) <- true) scf_blocks;
  (* Loop extraction: mark qualifying loops' bodies. *)
  let in_loop_area = Array.make (Graph.block_count g) false in
  if params.extract_loops then begin
    let infos = loop_infos () in
    List.iter
      (fun (i : Loopstat.info) ->
        if i.Loopstat.iterations_per_invocation >= params.min_loop_iterations then
          Array.iter
            (fun b -> if not in_scf.(b) && not (exclude b) then in_loop_area.(b) <- true)
            i.Loopstat.loop.Loops.body)
      infos
  end;
  (* The cursor can place a block only beside a logical cache's hole, so
     one that does not fit there would send [fit] skipping forever. *)
  let hole = if params.scf_holes then scf_bytes else 0 in
  if hole > 0 then begin
    let largest = ref 0 in
    for b = 0 to Graph.block_count g - 1 do
      if not (in_scf.(b) || exclude b) then
        largest := max !largest (Graph.block g b).Block.size
    done;
    if !largest > 0 && hole + !largest > params.cache_size then
      invalid_arg
        (Printf.sprintf
           "Opt.layout: a %d-byte block does not fit beside the %d-byte SelfConfFree \
            hole of a %d-byte logical cache"
           !largest hole params.cache_size)
  end;
  let map = Address_map.create g in
  (* 1. SelfConfFree area at the bottom of the first logical cache. *)
  let scf_cursor = ref params.start_offset in
  List.iter
    (fun b ->
      Address_map.place map b ~addr:!scf_cursor ~region:Address_map.Self_conf_free;
      scf_cursor := !scf_cursor + (Graph.block g b).Block.size)
    scf_blocks;
  (* 2. Sequences, skipping later logical caches' SelfConfFree holes. *)
  let cur =
    cursor ~cache:params.cache_size ~hole ~start:(params.start_offset + scf_bytes)
  in
  let loop_order = ref [] in
  List.iter
    (fun (s : Sequence.t) ->
      let region =
        if s.Sequence.pass.Schedule.exec_thresh >= Schedule.main_seq_exec_thresh then
          Address_map.Main_seq
        else Address_map.Other_seq
      in
      Array.iter
        (fun b ->
          if exclude b || in_scf.(b) then ()
          else if in_loop_area.(b) then loop_order := b :: !loop_order
          else begin
            let size = (Graph.block g b).Block.size in
            Address_map.place map b ~addr:(fit cur size) ~region
          end)
        s.Sequence.blocks)
    sequences;
  (* 3. Loop area at the end of the sequences, same internal order. *)
  let loop_blocks = List.rev !loop_order in
  List.iter
    (fun b ->
      let size = (Graph.block g b).Block.size in
      Address_map.place map b ~addr:(fit cur size) ~region:Address_map.Loop_area)
    loop_blocks;
  (* 4. Cold filler: every block still unplaced, coldest first (profile
     weight, then id), first-fit into the holes the sequences skipped,
     the rest after the end.  Holes the cursor opens during that tail
     fill stay unused.  Unexecuted blocks (weight 0.0, usually nearly all
     of them) are already in id order, so only the executed rest is
     sorted and the two runs are merged. *)
  let w = p.Profile.block in
  let n = Graph.block_count g in
  let zero = Array.make n 0 and nz = ref 0 in
  let rest = Array.make n 0 and nr = ref 0 in
  for b = 0 to n - 1 do
    if not (Address_map.is_placed map b || exclude b) then
      if w.(b) = 0.0 then begin
        zero.(!nz) <- b;
        incr nz
      end
      else begin
        rest.(!nr) <- b;
        incr nr
      end
  done;
  let colder a b =
    let c = Float.compare w.(a) w.(b) in
    if c <> 0 then c else Int.compare a b
  in
  let rest = Array.sub rest 0 !nr in
  Array.sort colder rest;
  let nholes = List.length cur.holes in
  let hole_start = Array.make nholes 0 and hole_avail = Array.make nholes 0 in
  List.iteri
    (fun i (start, size) ->
      hole_start.(nholes - 1 - i) <- start;
      hole_avail.(nholes - 1 - i) <- size)
    cur.holes;
  let place_cold b =
    let size = (Graph.block g b).Block.size in
    let h = ref 0 in
    while !h < nholes && hole_avail.(!h) < size do
      incr h
    done;
    if !h < nholes then begin
      Address_map.place map b ~addr:hole_start.(!h) ~region:Address_map.Cold;
      hole_start.(!h) <- hole_start.(!h) + size;
      hole_avail.(!h) <- hole_avail.(!h) - size
    end
    else Address_map.place map b ~addr:(fit cur size) ~region:Address_map.Cold
  in
  let i = ref 0 and j = ref 0 in
  while !i < !nz || !j < !nr do
    if !j >= !nr || (!i < !nz && colder zero.(!i) rest.(!j) < 0) then begin
      place_cold zero.(!i);
      incr i
    end
    else begin
      place_cold rest.(!j);
      incr j
    end
  done;
  { map; sequences; scf_blocks; scf_bytes; loop_blocks }

let layout ~graph:g ~profile:p ~loops ~seed_entry ~schedule ?exclude
    ?(follow_calls = true) params =
  let gd = Layout_cache.graph_digest g in
  let pd = Layout_cache.profile_digest p in
  let ld = Layout_cache.loops_digest g loops in
  (* Sequence construction consumes [seed_entry] only through the seed
     block of each pass, so materializing those blocks turns the function
     into digestible data. *)
  let seeds =
    List.map (fun (pass : Schedule.pass) -> seed_entry pass.Schedule.service) schedule
  in
  let seq_key =
    digest_key (gd, pd, (schedule : Schedule.pass list), follow_calls, (seeds : Block.id list))
  in
  let sequences =
    Seq_cache.find_or_build ~key:seq_key (fun () ->
        Sequence.build ~graph:g ~profile:p ~seed_entry ~schedule ~follow_calls ())
  in
  (* SCF selection and the Loopstat pass are cached on their raw
     (exclusion-free) outputs; [assemble] applies the exclusion filter and
     iteration threshold afterwards, so a Call-optimization build with a
     custom [exclude] still shares them. *)
  let select_scf cutoff =
    Scf_cache.find_or_build ~key:(digest_key (gd, pd, ld, cutoff)) (fun () ->
        Scf.select ~graph:g ~profile:p ~loops ~cutoff)
  in
  let loop_infos () =
    Loop_mark_cache.find_or_build ~key:(digest_key (gd, pd, ld)) (fun () ->
        Loopstat.analyze g p loops)
  in
  match exclude with
  | Some exclude ->
      (* The exclusion predicate is opaque, so the assembled result is not
         content-addressable; only the sub-stages are shared. *)
      assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos ~exclude params
  | None ->
      (* [seq_key] covers graph and profile, [ld] the loop set, and the
         parameter record everything geometry-dependent, so together they
         determine the whole placement. *)
      let place_key = digest_key (seq_key, ld, (params : params)) in
      Place_cache.find_or_build ~key:place_key (fun () ->
          let r =
            assemble ~graph:g ~profile:p ~sequences ~select_scf ~loop_infos
              ~exclude:(fun _ -> false)
              params
          in
          (* Validate once per actual construction: a placement served
             from the place cache was validated when it was built.  The
             exclude path above is left unvalidated on purpose — its maps
             are incomplete by design until the caller (Call_opt) places
             the blocks it claimed. *)
          Address_map.validate r.map;
          r)

let os_layout ?(schedule = Schedule.paper) ?(follow_calls = true) ~model ~profile ~loops
    params =
  let seed_entry c = (Model.seed_for model c).Model.entry in
  layout ~graph:model.Model.graph ~profile ~loops ~seed_entry ~schedule ~follow_calls
    params

let app_schedule =
  Schedule.uniform ~levels:[ (1e-3, 0.4); (1e-4, 0.1); (1e-7, 0.01); (0.0, 0.0) ]

let app_layout ~app ~profile ?stagger:(k = 0) ?(addr_skew = 0) params =
  let g = app.App_model.graph in
  let loops = Layout_cache.loops g in
  let entry = Graph.entry_of g app.App_model.main in
  (* Distinct images are staggered within the cache so two compact
     optimized applications time-sharing the processor do not overlap
     set-for-set.  [addr_skew] is the image's load-address offset modulo
     the cache: the start offset compensates for it so the sequences'
     {e effective} cache position is the intended opposite-side slot. *)
  let c = params.cache_size in
  let target = (c / 2) + (k * c / 4 mod (c / 2)) in
  let start = ((target - addr_skew) mod c + c) mod c in
  let params =
    { params with scf_cutoff = None; extract_loops = true; start_offset = start }
  in
  layout ~graph:g ~profile ~loops ~seed_entry:(fun _ -> entry) ~schedule:app_schedule
    params
