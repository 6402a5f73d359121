(* The state lives unboxed in an 8-byte buffer: a [mutable state : int64]
   field would box a fresh int64 on every draw, and Random-policy cache
   replacement draws once per victim. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 seed;
  g

let of_int seed = create (Int64.of_int seed)

let copy g = Bytes.copy g

(* SplitMix64 step: advance by the golden gamma, then mix (Stafford's
   variant 13 finalizer).  Inlined so callers in this module that convert
   the result to an int keep every intermediate unboxed. *)
let[@inline] next_int64 g =
  let z = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = create (next_int64 g)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free for our purposes: 62 usable bits dwarf any bound used
     here, so modulo bias is negligible.  62 bits (not 63) so the value
     fits OCaml's native int without wrapping negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2) in
  v mod bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let bits53 g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 11)

(* 53 random bits scaled into [0, 1). *)
let[@inline] unit_float g = float_of_int (bits53 g) *. 0x1p-53

let float g bound = unit_float g *. bound

let bernoulli g p = unit_float g < p

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

(* The one cumulative-weight scan: the first index whose running sum of
   [w] exceeds [u], the last index taking any overshoot.  A loop over
   float refs, so nothing is boxed. *)
let[@inline] weighted_index (w : float array) u =
  let n = Array.length w in
  let acc = ref 0.0 and i = ref 0 in
  while
    !i < n - 1
    &&
    (acc := !acc +. w.(!i);
     not (u < !acc))
  do
    incr i
  done;
  !i

let choose_index g (w : float array) =
  let total = ref 0.0 in
  for i = 0 to Array.length w - 1 do
    total := !total +. w.(i)
  done;
  if not (!total > 0.0) then
    invalid_arg "Prng.choose_index: weights must sum to a positive value";
  weighted_index w (unit_float g *. !total)

let choose_weighted g choices = fst choices.(choose_index g (Array.map snd choices))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
