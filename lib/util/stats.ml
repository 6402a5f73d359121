(* A loop over a float ref, not [Array.fold_left], so no partial sum is
   boxed; the additions happen in the same left-to-right order. *)
let sum (a : float array) =
  let total = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    total := !total +. a.(i)
  done;
  !total

let sum_int a = Array.fold_left ( + ) 0 a

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let geometric_mean a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let log_sum =
      Array.fold_left
        (fun acc x ->
          if not (x > 0.0) then
            invalid_arg "Stats.geometric_mean: values must be positive";
          acc +. log x)
        0.0 a
    in
    exp (log_sum /. float_of_int n)
  end

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let var = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    sqrt (var /. float_of_int n)
  end

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let b = sorted_copy a in
    if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0
  end

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
  b.(idx)

let minimum a =
  if Array.length a = 0 then invalid_arg "Stats.minimum: empty array";
  Array.fold_left min a.(0) a

let maximum a =
  if Array.length a = 0 then invalid_arg "Stats.maximum: empty array";
  Array.fold_left max a.(0) a

let normalize a =
  let total = sum a in
  if total = 0.0 then Array.map (fun _ -> 0.0) a
  else Array.map (fun x -> x /. total) a

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let pct num den = 100.0 *. ratio num den
