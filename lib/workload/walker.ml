type t = {
  graph : Graph.t;
  arc_prob : float array;
  prng : Prng.t;
  override : int array;  (** Per block: the arc to take, or -1. *)
  on_arc : Arc.id -> unit;
  mutable current : Block.id;
  mutable running : bool;
  mutable stack : Block.id array;  (** Caller blocks, [depth] deep. *)
  mutable depth : int;
}

let create ~graph ~arc_prob ~prng ?override ?(on_arc = ignore) () =
  let blocks = Graph.block_count graph in
  let override =
    match override with
    | None -> Array.make blocks (-1)
    | Some o ->
        if Array.length o <> blocks then
          invalid_arg "Walker.create: override must have one entry per block";
        o
  in
  {
    graph;
    arc_prob;
    prng;
    override;
    on_arc;
    current = 0;
    running = false;
    stack = Array.make 16 0;
    depth = 0;
  }

let start t entry =
  t.depth <- 0;
  t.current <- entry;
  t.running <- true

let active t = t.running

let push t b =
  if t.depth = Array.length t.stack then begin
    let bigger = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- b;
  t.depth <- t.depth + 1

(* Prng.unit_float, bit for bit.  Computed here because, without
   cross-module inlining, a float returned from another module is boxed,
   and [pick_arc] draws once per multi-arc block. *)
let[@inline] unit_float g = float_of_int (Prng.bits53 g) *. 0x1p-53

(* The arc out of [b]: its override, the only arc, or a draw from the
   intrinsic probabilities.  The scan is Prng.choose_index's, kept local
   for the same reason as [unit_float], and because its weights are read
   through arc ids and are not rescaled by their sum. *)
let pick_arc t b arcs =
  let o = t.override.(b) in
  if o >= 0 then o
  else begin
    let n = Array.length arcs in
    if n = 1 then arcs.(0)
    else begin
      let u = unit_float t.prng in
      let acc = ref 0.0 and i = ref 0 in
      while
        !i < n - 1
        &&
        (acc := !acc +. t.arc_prob.(arcs.(!i));
         not (u < !acc))
      do
        incr i
      done;
      arcs.(!i)
    end
  end

(* After block [b] finishes (including any callee), decide where control
   goes: its arcs, or on exit pop back to the caller. *)
let rec resume t b =
  let arcs = Graph.out_arcs t.graph b in
  if Array.length arcs = 0 then begin
    if t.depth = 0 then t.running <- false
    else begin
      t.depth <- t.depth - 1;
      resume t t.stack.(t.depth)
    end
  end
  else begin
    let a = pick_arc t b arcs in
    t.on_arc a;
    t.current <- (Graph.arc t.graph a).Arc.dst
  end

let step t =
  if not t.running then -1
  else begin
    let b = t.current in
    (match (Graph.block t.graph b).Block.call with
    | Some callee ->
        push t b;
        t.current <- Graph.entry_of t.graph callee
    | None -> resume t b);
    b
  end

let depth t = t.depth
