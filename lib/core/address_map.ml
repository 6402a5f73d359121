type region = Main_seq | Self_conf_free | Loop_area | Other_seq | Cold

let region_to_string = function
  | Main_seq -> "MainSeq"
  | Self_conf_free -> "SelfConfFree"
  | Loop_area -> "Loops"
  | Other_seq -> "OtherSeq"
  | Cold -> "Cold"

type t = {
  graph : Graph.t;
  addr : int array;
  region : region array;
  mutable extent : int;
  mutable placed : int;
}

let create g =
  {
    graph = g;
    addr = Array.make (Graph.block_count g) (-1);
    region = Array.make (Graph.block_count g) Cold;
    extent = 0;
    placed = 0;
  }

let is_placed t b = t.addr.(b) >= 0

let place t b ~addr ~region =
  if addr < 0 then invalid_arg "Address_map.place: negative address";
  if is_placed t b then invalid_arg "Address_map.place: block already placed";
  t.addr.(b) <- addr;
  t.region.(b) <- region;
  t.placed <- t.placed + 1;
  let hi = addr + (Graph.block t.graph b).Block.size in
  if hi > t.extent then t.extent <- hi

let addr t b =
  if not (is_placed t b) then invalid_arg "Address_map.addr: block not placed";
  t.addr.(b)

let region t b = t.region.(b)

let extent t = t.extent

let placed_count t = t.placed

let graph t = t.graph

(* Stable bottom-up merge sort of block ids by [key.(b)].  Monomorphic,
   so every comparison is an unboxed int compare; the only allocation is
   one scratch array of the same length. *)
let sort_by_key key a =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + !width) n and hi = min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || key.(s.(!i)) <= key.(s.(!j))) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

let blocks_by_addr t =
  let blocks = Array.make t.placed 0 and k = ref 0 in
  for b = 0 to Array.length t.addr - 1 do
    if t.addr.(b) >= 0 then begin
      blocks.(!k) <- b;
      incr k
    end
  done;
  sort_by_key t.addr blocks

let validate t =
  let n = Graph.block_count t.graph in
  if t.placed <> n then
    failwith (Printf.sprintf "Address_map: %d of %d blocks placed" t.placed n);
  let order = blocks_by_addr t in
  for i = 1 to n - 1 do
    let prev = order.(i - 1) and b = order.(i) in
    let prev_end = t.addr.(prev) + (Graph.block t.graph prev).Block.size in
    if t.addr.(b) < prev_end then
      failwith
        (Printf.sprintf "Address_map: blocks %d and %d overlap at %d" prev b t.addr.(b))
  done

let addr_array t = Array.copy t.addr

let bytes_array t =
  Array.init (Graph.block_count t.graph) (fun b -> (Graph.block t.graph b).Block.size)
