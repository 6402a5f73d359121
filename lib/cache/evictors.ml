(* Per line: '\000' = never evicted, '\001' = last evictor was the OS,
   '\002' = last evictor was an application.  Indexed by line number and
   grown by doubling — line numbers are bounded by the highest placed
   address over the line size, so this stays within a few MB while
   replacing hashtable probes on every miss. *)
type t = { mutable bytes : Bytes.t }

let create () = { bytes = Bytes.make 4096 '\000' }

let record t line ~os =
  let n = Bytes.length t.bytes in
  if line >= n then begin
    let rec grow n = if line < n then n else grow (2 * n) in
    let b = Bytes.make (grow (2 * n)) '\000' in
    Bytes.blit t.bytes 0 b 0 n;
    t.bytes <- b
  end;
  Bytes.unsafe_set t.bytes line (if os then '\001' else '\002')

let classify t c ~os line =
  let tag =
    if line < Bytes.length t.bytes then Bytes.unsafe_get t.bytes line else '\000'
  in
  match tag with
  | '\000' ->
      if os then c.Counters.os_cold <- c.Counters.os_cold + 1
      else c.Counters.app_cold <- c.Counters.app_cold + 1;
      0
  | '\001' ->
      (* Last evictor was the OS. *)
      if os then begin
        c.Counters.os_self <- c.Counters.os_self + 1;
        1
      end
      else begin
        c.Counters.app_cross <- c.Counters.app_cross + 1;
        2
      end
  | _ ->
      (* Last evictor was an application. *)
      if os then begin
        c.Counters.os_cross <- c.Counters.os_cross + 1;
        2
      end
      else begin
        c.Counters.app_self <- c.Counters.app_self + 1;
        1
      end

let clear t = Bytes.fill t.bytes 0 (Bytes.length t.bytes) '\000'
