open Helpers

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_make () =
  let c = Config.make ~size_kb:8 () in
  check_int "size" 8192 c.Config.size;
  check_int "direct-mapped default" 1 c.Config.assoc;
  check_int "32B lines default" 32 c.Config.line;
  check_int "sets" 256 (Config.sets c)

let test_config_assoc_sets () =
  let c = Config.v ~size:8192 ~assoc:4 ~line:32 in
  check_int "sets with associativity" 64 (Config.sets c)

let test_config_validation () =
  check_raises_invalid "non-power-of-two size" (fun () ->
      Config.v ~size:3000 ~assoc:1 ~line:32);
  check_raises_invalid "non-power-of-two assoc" (fun () ->
      Config.v ~size:8192 ~assoc:3 ~line:32);
  check_raises_invalid "non-power-of-two line" (fun () ->
      Config.v ~size:8192 ~assoc:1 ~line:24);
  check_raises_invalid "line bigger than cache" (fun () ->
      Config.v ~size:32 ~assoc:1 ~line:64);
  check_raises_invalid "line smaller than an instruction word" (fun () ->
      Config.v ~size:8192 ~assoc:1 ~line:2);
  check_bool "check reports what v raises" true
    (Stdlib.Result.is_error (Config.check ~size:1024 ~assoc:1 ~line:4096)
    && Config.check ~size:8192 ~assoc:1 ~line:4 = Ok (Config.v ~size:8192 ~assoc:1 ~line:4))

let test_config_addr_math () =
  let c = Config.v ~size:8192 ~assoc:1 ~line:32 in
  check_int "line of addr" 3 (Config.line_of_addr c 96);
  check_int "line of addr mid-line" 3 (Config.line_of_addr c 100);
  check_int "set wraps" 0 (Config.set_of_line c 256);
  check_bool "to_string mentions size" true
    (String.length (Config.to_string c) > 0)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_counters_arith () =
  let c = Counters.create () in
  c.Counters.refs_os <- 100;
  c.Counters.refs_app <- 50;
  c.Counters.os_cold <- 1;
  c.Counters.os_self <- 2;
  c.Counters.os_cross <- 3;
  c.Counters.app_cold <- 4;
  c.Counters.app_self <- 5;
  c.Counters.app_cross <- 6;
  check_int "refs" 150 (Counters.refs c);
  check_int "os misses" 6 (Counters.os_misses c);
  check_int "app misses" 15 (Counters.app_misses c);
  check_int "misses" 21 (Counters.misses c);
  check_close 1e-9 "miss rate" (21.0 /. 150.0) (Counters.miss_rate c);
  check_close 1e-9 "os miss rate" (6.0 /. 100.0) (Counters.os_miss_rate c);
  let d = Counters.copy c in
  Counters.add d c;
  check_int "add doubles" 42 (Counters.misses d);
  Counters.reset d;
  check_int "reset zeroes" 0 (Counters.misses d);
  check_close 1e-9 "empty miss rate" 0.0 (Counters.miss_rate d)

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let dm_1kb () = Sim.create (Config.v ~size:1024 ~assoc:1 ~line:32)

let test_sim_miss_then_hit () =
  let s = dm_1kb () in
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:16;
  let c = Sim.counters s in
  check_int "first access misses once" 1 (Counters.misses c);
  check_int "cold classified" 1 c.Counters.os_cold;
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:16;
  check_int "second access hits" 1 (Counters.misses (Sim.counters s));
  check_int "refs counted in words" 8 (Counters.refs (Sim.counters s))

let test_sim_block_spanning_lines () =
  let s = dm_1kb () in
  (* Bytes 16..95 span lines 0, 1 and 2 of 32 bytes. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:16 ~bytes:80;
  check_int "three line misses" 3 (Counters.misses (Sim.counters s));
  check_bool "all three resident" true
    (Sim.probe s ~addr:0 && Sim.probe s ~addr:32 && Sim.probe s ~addr:95)

let test_sim_conflict_direct_mapped () =
  let s = dm_1kb () in
  (* Addresses 0 and 1024 share set 0 in a 1 KB direct-mapped cache. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  let c = Sim.counters s in
  check_int "three misses" 3 (Counters.misses c);
  check_int "last one is self-interference" 1 c.Counters.os_self;
  check_bool "victim no longer resident" false (Sim.probe s ~addr:1024)

let test_sim_no_conflict_different_sets () =
  let s = dm_1kb () in
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:1 ~addr:32 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "only two cold misses" 2 (Counters.misses (Sim.counters s))

let test_sim_lru_two_way () =
  let s = Sim.create (Config.v ~size:1024 ~assoc:2 ~line:32) in
  (* Set 0 of a 2-way 1 KB cache: lines at 0, 512, 1024 all map there. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:1 ~addr:512 ~bytes:4;
  (* Touch 0 so 512 becomes LRU. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:2 ~addr:1024 ~bytes:4;
  check_bool "0 still resident (MRU)" true (Sim.probe s ~addr:0);
  check_bool "512 evicted (LRU)" false (Sim.probe s ~addr:512);
  check_bool "1024 resident" true (Sim.probe s ~addr:1024)

let test_sim_fifo_no_refresh () =
  (* Set 0 of a 2-way cache under FIFO: hits do not refresh, so the oldest
     insertion is evicted even if it was just used. *)
  let s = Sim.create (Config.with_policy (Config.v ~size:1024 ~assoc:2 ~line:32) Config.Fifo) in
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:1 ~addr:512 ~bytes:4;
  (* Touch 0: under LRU this would protect it; FIFO ignores the hit. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:2 ~addr:1024 ~bytes:4;
  check_bool "oldest insertion (0) evicted despite the hit" false
    (Sim.probe s ~addr:0);
  check_bool "512 survives" true (Sim.probe s ~addr:512)

let test_sim_random_deterministic () =
  let run () =
    let s =
      Sim.create
        (Config.with_policy (Config.v ~size:512 ~assoc:4 ~line:32) (Config.Random 7))
    in
    let g = Prng.of_int 99 in
    for _ = 1 to 2000 do
      Sim.access s ~os:true ~image:0 ~block:0 ~addr:(32 * Prng.int g 64) ~bytes:4
    done;
    Counters.misses (Sim.counters s)
  in
  check_int "same seed, same misses" (run ()) (run ());
  let other =
    let s =
      Sim.create
        (Config.with_policy (Config.v ~size:512 ~assoc:4 ~line:32) (Config.Random 8))
    in
    let g = Prng.of_int 99 in
    for _ = 1 to 2000 do
      Sim.access s ~os:true ~image:0 ~block:0 ~addr:(32 * Prng.int g 64) ~bytes:4
    done;
    Counters.misses (Sim.counters s)
  in
  check_bool "replacement-seed sensitivity" true (other <> run () || other = run ())

let test_sim_random_fills_invalid_first () =
  let s =
    Sim.create
      (Config.with_policy (Config.v ~size:1024 ~assoc:4 ~line:32) (Config.Random 3))
  in
  (* Four lines into one set of a 4-way cache: all must be resident. *)
  List.iter
    (fun addr -> Sim.access s ~os:true ~image:0 ~block:0 ~addr ~bytes:4)
    [ 0; 256; 512; 768 ];
  List.iter
    (fun addr -> check_bool "resident" true (Sim.probe s ~addr))
    [ 0; 256; 512; 768 ]

let test_sim_policy_in_to_string () =
  let c = Config.with_policy (Config.v ~size:8192 ~assoc:2 ~line:32) Config.Fifo in
  check_bool "FIFO shown" true
    (String.length (Config.to_string c) > String.length "8KB/2way/32B")

let test_sim_cross_interference () =
  let s = dm_1kb () in
  Sim.access s ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  (* OS evicts the app line. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:1024 ~bytes:4;
  (* App misses again: cross-interference. *)
  Sim.access s ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = Sim.counters s in
  check_int "app cross" 1 c.Counters.app_cross;
  check_int "app cold" 1 c.Counters.app_cold;
  check_int "os cold" 1 c.Counters.os_cold;
  (* Now the app evicts the OS line back: OS cross. *)
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:1024 ~bytes:4;
  check_int "os cross" 1 c.Counters.os_cross

let test_sim_attribution () =
  let s = dm_1kb () in
  Sim.enable_block_attribution s ~images:2 ~blocks:[| 4; 4 |];
  Sim.access s ~os:true ~image:0 ~block:2 ~addr:0 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:3 ~addr:1024 ~bytes:4;
  Sim.access s ~os:true ~image:0 ~block:2 ~addr:0 ~bytes:4;
  check_int "block 2 missed twice" 2 (Sim.block_misses s ~image:0).(2);
  check_int "block 3 missed once" 1 (Sim.block_misses s ~image:0).(3);
  check_int "block 2 self misses" 1 (Sim.block_misses_self s ~image:0).(2);
  check_int "block 3 no self misses" 0 (Sim.block_misses_self s ~image:0).(3);
  check_int "no cross misses" 0 (Sim.block_misses_cross s ~image:0).(2)

let test_sim_attribution_disabled () =
  let s = dm_1kb () in
  check_raises_invalid "attribution off" (fun () -> Sim.block_misses s ~image:0)

let test_sim_reset_counters_keeps_contents () =
  let s = dm_1kb () in
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.reset_counters s;
  check_int "counters zeroed" 0 (Counters.misses (Sim.counters s));
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "line still resident after reset_counters" 0
    (Counters.misses (Sim.counters s))

let test_sim_reset_empties () =
  let s = dm_1kb () in
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  Sim.reset s;
  check_bool "line gone" false (Sim.probe s ~addr:0);
  Sim.access s ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "misses again, as cold" 1 (Sim.counters s).Counters.os_cold

let prop_misses_bounded_by_refs =
  QCheck.Test.make ~name:"misses never exceed word references" ~count:100
    QCheck.(pair small_int (list_of_size Gen.(1 -- 200) (pair (int_bound 4095) bool)))
    (fun (_, accesses) ->
      let s = Sim.create (Config.v ~size:512 ~assoc:2 ~line:16) in
      List.iter
        (fun (addr, os) ->
          Sim.access s ~os ~image:(if os then 0 else 1) ~block:0
            ~addr:(addr land lnot 3) ~bytes:4)
        accesses;
      let c = Sim.counters s in
      Counters.misses c <= Counters.refs c)

let prop_large_cache_no_conflicts =
  QCheck.Test.make ~name:"cache larger than footprint only misses cold" ~count:50
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 1023))
    (fun addrs ->
      let s = Sim.create (Config.v ~size:65536 ~assoc:1 ~line:32) in
      List.iter
        (fun addr -> Sim.access s ~os:true ~image:0 ~block:0 ~addr ~bytes:4)
        addrs;
      let c = Sim.counters s in
      c.Counters.os_self = 0 && c.Counters.os_cross = 0)

(* ------------------------------------------------------------------ *)
(* System                                                             *)
(* ------------------------------------------------------------------ *)

let test_system_unified () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "one miss" 1 (Counters.misses c);
  check_int "two word refs" 2 (Counters.refs c)

let test_system_split_routes () =
  let sys =
    System.split
      ~os:(Config.v ~size:1024 ~assoc:1 ~line:32)
      ~app:(Config.v ~size:1024 ~assoc:1 ~line:32)
  in
  (* Same address from OS and app: separate caches, no interference. *)
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "two cold misses only" 2 (Counters.misses c);
  check_int "no cross interference" 0 (c.Counters.os_cross + c.Counters.app_cross)

let test_system_reserved_routes () =
  let sys =
    System.reserved
      ~hot:(Config.v ~size:512 ~assoc:1 ~line:32)
      ~rest:(Config.v ~size:1024 ~assoc:1 ~line:32)
      ~hot_limit:1024
  in
  (* OS below hot_limit goes to the hot cache; the same set in the rest
     cache is untouched, so an app line there survives. *)
  System.access sys ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "no app re-miss" 2 (Counters.misses c);
  (* OS above hot_limit goes to the rest cache and does evict the app. *)
  System.access sys ~os:true ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  System.access sys ~os:false ~image:1 ~block:0 ~addr:0 ~bytes:4;
  let c = System.counters sys in
  check_int "app cross after rest-cache eviction" 1 c.Counters.app_cross

let test_system_reset () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.reset_counters sys;
  check_int "counters zero" 0 (Counters.misses (System.counters sys));
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "contents kept" 0 (Counters.misses (System.counters sys));
  System.reset sys;
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "reset empties" 1 (Counters.misses (System.counters sys))

let test_system_attribution () =
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  System.enable_block_attribution sys ~images:1 ~blocks:[| 2 |];
  System.access sys ~os:true ~image:0 ~block:1 ~addr:0 ~bytes:4;
  check_int "attributed" 1 (System.block_misses sys ~image:0).(1);
  check_bool "describe non-empty" true (String.length (System.describe sys) > 0)

let test_system_victim_swap () =
  (* 1 KB direct-mapped main (32 sets) with a 2-line victim buffer.
     Lines 0 and 1024 conflict in set 0: the ping-pong that costs the
     plain cache a miss each time is absorbed by the buffer. *)
  let main = Config.v ~size:1024 ~assoc:1 ~line:32 in
  let sys = System.victim ~main ~entries:2 in
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.access sys ~os:true ~image:0 ~block:1 ~addr:1024 ~bytes:4;
  (* Both cold so far; from now on the two lines swap via the buffer. *)
  for _ = 1 to 10 do
    System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
    System.access sys ~os:true ~image:0 ~block:1 ~addr:1024 ~bytes:4
  done;
  let c = System.counters sys in
  check_int "only the two cold misses" 2 (Counters.misses c);
  check_int "all references counted" 22 (Counters.refs c)

let test_system_victim_capacity () =
  (* Three conflicting lines against a 1-line buffer: the buffer cannot
     hold the ping-pong set, so conflict misses persist. *)
  let main = Config.v ~size:1024 ~assoc:1 ~line:32 in
  let sys = System.victim ~main ~entries:1 in
  let addrs = [ 0; 1024; 2048 ] in
  List.iter (fun addr -> System.access sys ~os:true ~image:0 ~block:0 ~addr ~bytes:4) addrs;
  for _ = 1 to 5 do
    List.iter
      (fun addr -> System.access sys ~os:true ~image:0 ~block:0 ~addr ~bytes:4)
      addrs
  done;
  let c = System.counters sys in
  check_bool "self-interference persists" true (c.Counters.os_self > 0)

let test_system_victim_validation () =
  check_raises_invalid "set-associative main rejected" (fun () ->
      System.victim ~main:(Config.v ~size:1024 ~assoc:2 ~line:32) ~entries:4);
  check_raises_invalid "zero entries rejected" (fun () ->
      System.victim ~main:(Config.v ~size:1024 ~assoc:1 ~line:32) ~entries:0);
  let sys = System.victim ~main:(Config.v ~size:1024 ~assoc:1 ~line:32) ~entries:4 in
  check_raises_invalid "attribution unsupported" (fun () ->
      System.enable_block_attribution sys ~images:1 ~blocks:[| 1 |])

let test_system_victim_reset () =
  let sys = System.victim ~main:(Config.v ~size:1024 ~assoc:1 ~line:32) ~entries:2 in
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  System.reset sys;
  System.access sys ~os:true ~image:0 ~block:0 ~addr:0 ~bytes:4;
  check_int "cold again after reset" 1 (System.counters sys).Counters.os_cold;
  check_bool "victim described" true
    (String.length (System.describe sys) > 0)

(* ------------------------------------------------------------------ *)
(* Replay                                                             *)
(* ------------------------------------------------------------------ *)

let replay_fixture () =
  let lc = loop_call () in
  let t = Trace.create () in
  List.iter
    (fun b -> Trace.append t (Trace.Exec { image = 0; block = b }))
    [ lc.c0; lc.c1; lc.c2; lc.l0; lc.l1; lc.c3; lc.c4 ];
  let n = Graph.block_count lc.g in
  let map =
    {
      Replay.addr = [| Array.init n (fun b -> b * 16) |];
      bytes = [| Array.make n 16 |];
    }
  in
  (lc, t, map)

let test_replay_run () =
  let _, t, map = replay_fixture () in
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  Replay.run ~trace:t ~map ~systems:[| sys |];
  let c = System.counters sys in
  check_int "words fetched" (7 * 4) (Counters.refs c);
  (* 7 blocks of 16 bytes over 32-byte lines from address 0: 4 lines. *)
  check_int "cold misses only" 4 (Counters.misses c)

let test_replay_multiple_systems () =
  let _, t, map = replay_fixture () in
  let a = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  let b = System.unified (Config.v ~size:1024 ~assoc:1 ~line:16) in
  Replay.run ~trace:t ~map ~systems:[| a; b |];
  check_int "both systems see all refs" (Counters.refs (System.counters a))
    (Counters.refs (System.counters b));
  check_int "16B lines mean more line misses" 7
    (Counters.misses (System.counters b))

let test_replay_warmup () =
  let _, t, map = replay_fixture () in
  let sys = System.unified (Config.v ~size:1024 ~assoc:1 ~line:32) in
  (* Warm up over the whole trace: a second pass has no cold misses. *)
  Replay.run_range ~trace:t ~map ~systems:[| sys |] ~warmup:(Trace.exec_count t);
  check_int "warmup discards all misses" 0 (Counters.misses (System.counters sys));
  check_int "and all refs" 0 (Counters.refs (System.counters sys))

(* ------------------------------------------------------------------ *)
(* Stack_dist against a naive LRU stack                               *)
(* ------------------------------------------------------------------ *)

(* The obviously correct model: a move-to-front list of lines, where a
   line's position is its stack distance.  Returns (refs, cold, misses at
   capacity c). *)
let naive_stack_dist ~line accesses =
  let rec log2 v i = if v <= 1 then i else log2 (v lsr 1) (i + 1) in
  let shift = log2 line 0 in
  let stack = ref [] and refs = ref 0 and cold = ref 0 and dists = ref [] in
  let touch l =
    incr refs;
    let rec index i = function
      | [] -> -1
      | x :: rest -> if x = l then i else index (i + 1) rest
    in
    let d = index 0 !stack in
    if d < 0 then incr cold else dists := d :: !dists;
    stack := l :: List.filter (fun x -> x <> l) !stack
  in
  List.iter
    (fun (addr, bytes) ->
      for l = addr lsr shift to (addr + max 1 bytes - 1) lsr shift do
        touch l
      done)
    accesses;
  let misses_at c = !cold + List.length (List.filter (fun d -> d >= c) !dists) in
  (!refs, !cold, misses_at)

let stack_dist_of ~line accesses =
  let t = Stack_dist.create ~line () in
  List.iter (fun (addr, bytes) -> Stack_dist.access t ~addr ~bytes) accesses;
  t

let print_accesses l =
  Printf.sprintf "%d accesses: %s" (List.length l)
    (String.concat " "
       (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b)
          (List.filteri (fun i _ -> i < 40) l)))

(* Up to 20 k references over at most 300 lines: the slot window is
   compacted every few hundred references, many times per stream.  Half
   the draws come from a small hot set so short and long distances both
   occur. *)
let dense_stream =
  let open QCheck.Gen in
  let gen =
    int_range 1 300 >>= fun k ->
    int_range 1 20_000 >>= fun n ->
    int_bound 100_000 >>= fun origin ->
    list_repeat n
      ( frequency [ (1, int_bound (min k 8 - 1)); (1, int_bound (k - 1)) ]
      >>= fun i ->
        int_range 1 8 >|= fun bytes -> (32 * (origin + i), bytes) )
  in
  QCheck.make ~print:print_accesses gen

(* Sparse lines on both sides of page boundaries (pages hold 4096 lines)
   and around the 16 MB application base and the next image's base, with
   blocks up to three lines long. *)
let sparse_stream =
  let open QCheck.Gen in
  let app_base = Program_layout.app_region_base / 32 in
  let centres =
    [ 4096; 2 * 4096; 7 * 4096; app_base; app_base + Program_layout.app_region_stride / 32 ]
  in
  let line = oneofl centres >>= fun c -> int_range (-3) 3 >|= fun o -> c + o in
  let gen =
    int_range 1 3_000 >>= fun n ->
    list_repeat n
      ( line >>= fun l ->
        int_range 0 31 >>= fun off ->
        int_range 1 96 >|= fun bytes -> ((32 * l) + off, bytes) )
  in
  QCheck.make ~print:print_accesses gen

let matches_naive accesses =
  let t = stack_dist_of ~line:32 accesses in
  let refs, cold, misses_at = naive_stack_dist ~line:32 accesses in
  Stack_dist.refs t = refs
  && Stack_dist.cold t = cold
  && List.for_all
       (fun k -> Stack_dist.misses_at t ~lines:(1 lsl k) = misses_at (1 lsl k))
       (List.init 14 Fun.id)

let prop_stack_dist_dense =
  QCheck.Test.make ~count:40 ~name:"Stack_dist = naive LRU stack (dense, compacting)"
    dense_stream matches_naive

let prop_stack_dist_sparse =
  QCheck.Test.make ~count:100 ~name:"Stack_dist = naive LRU stack (page edges, app base)"
    sparse_stream matches_naive

(* Mattson: a one-set C-way LRU cache is fully associative, so with no
   warm-up its misses are exactly the references at stack distance >= C. *)
let prop_mattson_identity =
  QCheck.Test.make ~count:100 ~name:"1-set C-way LRU Sim = Stack_dist.misses_at C"
    QCheck.(
      pair (int_bound 6)
        (list_of_size Gen.(int_range 1 5_000) (pair (int_bound 299) (int_range 1 80))))
    (fun (k, refs) ->
      let c = 1 lsl k in
      let accesses = List.map (fun (l, bytes) -> (32 * l, bytes)) refs in
      let sim = Sim.create (Config.v ~size:(c * 32) ~assoc:c ~line:32) in
      List.iter
        (fun (addr, bytes) -> Sim.access sim ~os:true ~image:0 ~block:0 ~addr ~bytes)
        accesses;
      Counters.misses (Sim.counters sim)
      = Stack_dist.misses_at (stack_dist_of ~line:32 accesses) ~lines:c)

(* ------------------------------------------------------------------ *)
(* Allocation                                                         *)
(* ------------------------------------------------------------------ *)

(* Every sweep replays through these kernels; a few minor words per event
   means thousands of minor collections, each stopping every domain.
   Systems and the code map are built before measuring, so only the
   per-event path counts. *)
let minor_words_per_event trace f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int (Trace.exec_count trace)

let test_replay_allocation_free () =
  let ctx = Lazy.force small_context in
  let trace = ctx.Context.traces.(0) in
  let map = Program_layout.code_map (Levels.build ctx Levels.Base).(0) in
  let geometry assoc policy =
    Config.with_policy (Config.v ~size:8192 ~assoc ~line:32) policy
  in
  let check name words =
    check_bool (Printf.sprintf "%s: %.4f minor words/event < 0.05" name words) true
      (words < 0.05)
  in
  List.iter
    (fun (name, sys) ->
      check name
        (minor_words_per_event trace (fun () ->
             Replay.run ~trace ~map ~systems:[| sys |])))
    [
      ("direct", System.unified (geometry 1 Config.Lru));
      ("lru2", System.unified (geometry 2 Config.Lru));
      ("lru4", System.unified (geometry 4 Config.Lru));
      ("fifo4", System.unified (geometry 4 Config.Fifo));
      ("random4", System.unified (geometry 4 (Config.Random 1)));
      ("victim", System.victim ~main:(geometry 1 Config.Lru) ~entries:8);
    ];
  check "stack_dist"
    (minor_words_per_event trace (fun () ->
         ignore (Stack_dist.from_trace ~trace ~map () : Stack_dist.t)))

let () =
  Alcotest.run "cache"
    [
      ( "config",
        [
          case "make" test_config_make;
          case "associative sets" test_config_assoc_sets;
          case "validation" test_config_validation;
          case "address math" test_config_addr_math;
        ] );
      ("counters", [ case "arithmetic" test_counters_arith ]);
      ( "sim",
        [
          case "miss then hit" test_sim_miss_then_hit;
          case "block spanning lines" test_sim_block_spanning_lines;
          case "direct-mapped conflict" test_sim_conflict_direct_mapped;
          case "different sets no conflict" test_sim_no_conflict_different_sets;
          case "2-way LRU" test_sim_lru_two_way;
          case "FIFO no refresh" test_sim_fifo_no_refresh;
          case "random deterministic" test_sim_random_deterministic;
          case "random fills invalid first" test_sim_random_fills_invalid_first;
          case "policy in to_string" test_sim_policy_in_to_string;
          case "cross interference" test_sim_cross_interference;
          case "attribution" test_sim_attribution;
          case "attribution disabled" test_sim_attribution_disabled;
          case "reset_counters keeps contents" test_sim_reset_counters_keeps_contents;
          case "reset empties" test_sim_reset_empties;
          qcheck prop_misses_bounded_by_refs;
          qcheck prop_large_cache_no_conflicts;
        ] );
      ( "system",
        [
          case "unified" test_system_unified;
          case "split routes" test_system_split_routes;
          case "reserved routes" test_system_reserved_routes;
          case "reset" test_system_reset;
          case "attribution" test_system_attribution;
          case "victim swap" test_system_victim_swap;
          case "victim capacity" test_system_victim_capacity;
          case "victim validation" test_system_victim_validation;
          case "victim reset" test_system_victim_reset;
        ] );
      ( "replay",
        [
          case "run" test_replay_run;
          case "multiple systems" test_replay_multiple_systems;
          case "warmup" test_replay_warmup;
          case "allocation-free kernels" test_replay_allocation_free;
        ] );
      ( "mattson",
        [
          qcheck prop_stack_dist_dense;
          qcheck prop_stack_dist_sparse;
          qcheck prop_mattson_identity;
        ] );
    ]
