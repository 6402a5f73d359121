type t = {
  block : float array;
  arc : float array;
  mutable total_blocks : float;
  mutable invocations : float;
}

let empty g =
  {
    block = Array.make (Graph.block_count g) 0.0;
    arc = Array.make (Graph.arc_count g) 0.0;
    total_blocks = 0.0;
    invocations = 0.0;
  }

let sinks ~program =
  let profiles =
    Array.init (Program.image_count program) (fun i -> empty (Program.graph program i))
  in
  let sink =
    {
      Engine.on_exec =
        (fun ~image ~block ->
          let p = profiles.(image) in
          p.block.(block) <- p.block.(block) +. 1.0;
          p.total_blocks <- p.total_blocks +. 1.0);
      on_arc =
        (fun ~image ~arc ->
          let p = profiles.(image) in
          p.arc.(arc) <- p.arc.(arc) +. 1.0);
      on_invocation_start =
        (fun _ ->
          let p = profiles.(Program.os_image) in
          p.invocations <- p.invocations +. 1.0);
      on_invocation_end = ignore;
    }
  in
  (profiles, sink)

(* One fused sink: an exec is a trace append plus a float-array bump.  The
   scalar counters are set once after the run, so no exec boxes a float
   into a mixed record. *)
let capture ~program ~workload ~words ~seed =
  let trace = Trace.create ~capacity:(words / 4) () in
  let profiles =
    Array.init (Program.image_count program) (fun i -> empty (Program.graph program i))
  in
  let block = Array.map (fun p -> p.block) profiles
  and arc = Array.map (fun p -> p.arc) profiles in
  let invocations = ref 0 in
  let sink =
    {
      Engine.on_exec =
        (fun ~image ~block:b ->
          Trace.append_exec trace ~image ~block:b;
          let c = block.(image) in
          c.(b) <- c.(b) +. 1.0);
      on_arc =
        (fun ~image ~arc:a ->
          let c = arc.(image) in
          c.(a) <- c.(a) +. 1.0);
      on_invocation_start =
        (fun c ->
          Trace.append trace (Trace.Invocation_start c);
          incr invocations);
      on_invocation_end = (fun () -> Trace.append trace Trace.Invocation_end);
    }
  in
  let stats = Engine.run ~program ~workload ~words ~seed ~sink in
  (* Exact: the counts are integers below 2^53, so every partial sum is
     too, and the sum equals the per-exec increments. *)
  Array.iter (fun p -> p.total_blocks <- Stats.sum p.block) profiles;
  profiles.(Program.os_image).invocations <- float_of_int !invocations;
  (trace, stats, profiles)

let scale_to t target =
  let k = if t.total_blocks > 0.0 then target /. t.total_blocks else 0.0 in
  {
    block = Array.map (fun x -> x *. k) t.block;
    arc = Array.map (fun x -> x *. k) t.arc;
    total_blocks = t.total_blocks *. k;
    invocations = t.invocations *. k;
  }

let accumulate dst src =
  if Array.length dst.block <> Array.length src.block then
    invalid_arg "Profile.accumulate: shape mismatch";
  Array.iteri (fun i x -> dst.block.(i) <- dst.block.(i) +. x) src.block;
  Array.iteri (fun i x -> dst.arc.(i) <- dst.arc.(i) +. x) src.arc;
  dst.total_blocks <- dst.total_blocks +. src.total_blocks;
  dst.invocations <- dst.invocations +. src.invocations

let average = function
  | [] -> invalid_arg "Profile.average: empty list"
  | first :: _ as profiles ->
      let acc =
        {
          block = Array.make (Array.length first.block) 0.0;
          arc = Array.make (Array.length first.arc) 0.0;
          total_blocks = 0.0;
          invocations = 0.0;
        }
      in
      let n = float_of_int (List.length profiles) in
      List.iter (fun p -> accumulate acc (scale_to p 1_000_000.0)) profiles;
      scale_to acc (acc.total_blocks /. n)

let executed t b = t.block.(b) > 0.0

let block_fraction t b =
  if t.total_blocks > 0.0 then t.block.(b) /. t.total_blocks else 0.0

let arc_probability t g a =
  let src = (Graph.arc g a).Arc.src in
  if t.block.(src) > 0.0 then t.arc.(a) /. t.block.(src) else 0.0

let routine_invocations t g =
  Array.init (Graph.routine_count g) (fun r ->
      let entry = Graph.entry_of g r in
      let back =
        Array.fold_left
          (fun acc a -> acc +. t.arc.(a))
          0.0 (Graph.in_arcs g entry)
      in
      Float.max 0.0 (t.block.(entry) -. back))

let executed_routine_count t g =
  let n = ref 0 in
  Graph.iter_routines g (fun r ->
      if Array.exists (fun b -> executed t b) r.Routine.blocks then incr n);
  !n

let executed_block_count t =
  Array.fold_left (fun acc x -> if x > 0.0 then acc + 1 else acc) 0 t.block

let executed_bytes t g =
  Graph.fold_blocks g ~init:0 ~f:(fun acc b ->
      if executed t b.Block.id then acc + b.Block.size else acc)

let dynamic_words t g =
  Graph.fold_blocks g ~init:0.0 ~f:(fun acc b ->
      acc +. (t.block.(b.Block.id) *. float_of_int (Block.instruction_words b)))
