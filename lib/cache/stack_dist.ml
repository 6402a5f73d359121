(* LRU stack-distance (reuse-distance) analysis.

   One pass over a line-granular reference stream yields, for every
   fully-associative LRU capacity at once, the number of misses: a
   reference misses in a cache of C lines iff its stack distance (number
   of distinct lines touched since the previous reference to the same
   line) is at least C.  The classic tool for separating capacity misses
   from the conflict misses that the paper's layouts remove: a layout
   cannot change the stack-distance profile (it is address-free), so any
   gap between the fully-associative curve and a set-associative
   simulation is conflict misses.

   Every reference takes a slot on a timeline; each line's most recent
   slot is "live" and the rest are dead.  A line's stack distance is the
   number of live slots after its previous slot, which a Fenwick (binary
   indexed) tree over the slots answers in O(log window).  The window
   holds at least twice the live lines: when it fills, the live slots are
   compacted to its front in order (O(window), amortized O(1) per
   reference), so the tree stays O(live lines) however long the trace.
   Nothing on the per-reference path allocates. *)

(* Last-use slots are kept per line in pages of [page_size] entries,
   allocated on first touch: application images start at 16 MB, so one
   flat array indexed by line would span millions of unused entries. *)
let page_bits = 12
let page_size = 1 lsl page_bits

(* Distances are counted in power-of-two buckets: bucket 0 holds d = 0,
   bucket j >= 1 holds 2^(j-1) <= d < 2^j, and the last bucket is open
   above (distances of 2^23 lines or more, i.e. 256 MB of 32 B lines). *)
let buckets = 25

type t = {
  line_shift : int;
  mutable pages : int array array;
      (** line lsr page_bits -> page of last-use slots (-1 = never used);
          [[||]] until the page is first touched. *)
  mutable tree : int array;  (** Fenwick tree over the window's slots. *)
  mutable slot_line : int array;  (** slot -> line, -1 = dead slot. *)
  mutable now : int;  (** Next free slot. *)
  mutable live : int;  (** Distinct lines seen = live slots. *)
  counts : int array;  (** [buckets] distance counts. *)
  mutable cold : int;
  mutable refs : int;
}

let initial_window = 1024

let create ?(line = 32) () =
  let rec shift v i = if v <= 1 then i else shift (v lsr 1) (i + 1) in
  {
    line_shift = shift line 0;
    pages = Array.make 16 [||];
    tree = Array.make initial_window 0;
    slot_line = Array.make initial_window (-1);
    now = 0;
    live = 0;
    counts = Array.make buckets 0;
    cold = 0;
    refs = 0;
  }

let rec tree_add (tree : int array) i delta =
  if i < Array.length tree then begin
    Array.unsafe_set tree i (Array.unsafe_get tree i + delta);
    tree_add tree (i lor (i + 1)) delta
  end

(* Sum of slots [0..i]. *)
let rec tree_sum (tree : int array) i acc =
  if i < 0 then acc
  else tree_sum tree ((i land (i + 1)) - 1) (acc + Array.unsafe_get tree i)

(* The page holding [line]'s entry, allocating it (and growing the page
   directory) on first touch. *)
let page t line =
  let p = line lsr page_bits in
  if p >= Array.length t.pages then begin
    let rec size n = if p < n then n else size (2 * n) in
    let pages = Array.make (size (2 * Array.length t.pages)) [||] in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let pg = Array.unsafe_get t.pages p in
  if Array.length pg > 0 then pg
  else begin
    let pg = Array.make page_size (-1) in
    t.pages.(p) <- pg;
    pg
  end

(* Move the live slots to the front of a window at least twice their
   number, in timeline order, and rebuild the tree.  The live slots then
   form the prefix [0, live), so tree cell i, which covers slots
   [i land (i + 1), i], holds the size of that range's overlap with it. *)
let compact t =
  let rec size w = if w >= 2 * (t.live + 1) then w else size (2 * w) in
  let w = size (Array.length t.tree) in
  let old = t.slot_line in
  let slot_line = if w = Array.length old then old else Array.make w (-1) in
  let j = ref 0 in
  for s = 0 to t.now - 1 do
    let line = old.(s) in
    if line >= 0 then begin
      slot_line.(!j) <- line;
      (page t line).(line land (page_size - 1)) <- !j;
      incr j
    end
  done;
  Array.fill slot_line !j (w - !j) (-1);
  let live = !j in
  let tree = if w = Array.length t.tree then t.tree else Array.make w 0 in
  for i = 0 to w - 1 do
    let lo = i land (i + 1) in
    tree.(i) <- (if lo >= live then 0 else min i (live - 1) - lo + 1)
  done;
  t.slot_line <- slot_line;
  t.tree <- tree;
  t.now <- live

(* Bit length of [d] added to [n]: 0 for 0, else floor (log2 d) + 1. *)
let rec bit_length d n =
  if d >= 256 then bit_length (d lsr 8) (n + 8)
  else if d = 0 then n
  else bit_length (d lsr 1) (n + 1)

let access_line t line =
  t.refs <- t.refs + 1;
  if t.now = Array.length t.tree then compact t;
  (* Inline lookup for the common case, an existing page; [page] does
     the first touch. *)
  let pages = t.pages in
  let p = line lsr page_bits in
  let pg = if p < Array.length pages then Array.unsafe_get pages p else [||] in
  let pg = if Array.length pg > 0 then pg else page t line in
  let k = line land (page_size - 1) in
  let ts = Array.unsafe_get pg k in
  if ts >= 0 && ts = t.now - 1 then
    (* Re-reference of the most recent line (consecutive blocks sharing
       a line): distance 0, and its slot is already the newest. *)
    Array.unsafe_set t.counts 0 (Array.unsafe_get t.counts 0 + 1)
  else begin
    if ts < 0 then begin
      t.cold <- t.cold + 1;
      t.live <- t.live + 1
    end
    else begin
      (* Distinct lines referenced strictly after [ts] = live slots in
         (ts, now); the line's own slot at [ts] is live too. *)
      let distance = t.live - tree_sum t.tree ts 0 in
      let b = min (buckets - 1) (bit_length distance 0) in
      Array.unsafe_set t.counts b (Array.unsafe_get t.counts b + 1);
      tree_add t.tree ts (-1);
      Array.unsafe_set t.slot_line ts (-1)
    end;
    let now = t.now in
    Array.unsafe_set pg k now;
    Array.unsafe_set t.slot_line now line;
    tree_add t.tree now 1;
    t.now <- now + 1
  end

let access t ~addr ~bytes =
  let first = addr lsr t.line_shift in
  let last = (addr + max 1 bytes - 1) lsr t.line_shift in
  for line = first to last do
    access_line t line
  done

let refs t = t.refs

let cold t = t.cold

let misses_at t ~lines =
  (* Misses in a fully-associative LRU cache of [lines] lines: cold misses
     plus references whose stack distance >= lines; [lines] is rounded
     down to a power of two.  A distance d hits in a cache of 2^k lines
     iff d < 2^k: buckets 0..k exactly. *)
  if lines < 1 then invalid_arg "Stack_dist.misses_at: lines < 1";
  let k = bit_length lines 0 - 1 in
  let hits = ref 0 in
  for i = 0 to min k (buckets - 1) do
    hits := !hits + t.counts.(i)
  done;
  t.refs - !hits

let curve t ~max_lines =
  let rec go lines acc =
    if lines > max_lines then List.rev acc
    else go (lines * 2) ((lines, misses_at t ~lines) :: acc)
  in
  go 1 []

let from_trace ~trace ~map ?(line = 32) ?(os_only = false) () =
  let t = create ~line () in
  Trace.iter_exec trace (fun ~image ~block ->
      if (not os_only) || image = 0 then
        access t ~addr:map.Replay.addr.(image).(block)
          ~bytes:map.Replay.bytes.(image).(block));
  t
