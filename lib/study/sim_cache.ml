type entry = { counters : Counters.t; os_block_misses : int array }

type key = string

let key ~context ~layouts ~config ~warmup_fraction ~attribute_os =
  let buf = Buffer.create 256 in
  Buffer.add_string buf context;
  Array.iter
    (fun d ->
      Buffer.add_char buf '|';
      Buffer.add_string buf d)
    layouts;
  Buffer.add_char buf '|';
  (* The runtime representation covers every Config field, including a
     Random policy's seed (Config.to_string does not). *)
  Buffer.add_string buf (Marshal.to_string (config : Config.t) []);
  Buffer.add_string buf (Printf.sprintf "|%.17g|%b" warmup_fraction attribute_os);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let table : (string, entry array) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

(* The registry is the only store of the lookup counts: the manifest's
   metrics snapshot and [icache-opt validate]'s hits + misses = lookups
   check read the same counters as {!hits} and {!misses}. *)
let m_hits = Metrics_registry.counter "sim_cache.hits"
let m_misses = Metrics_registry.counter "sim_cache.misses"
let m_lookups = Metrics_registry.counter "sim_cache.lookups"

let copy e =
  {
    counters = Counters.copy e.counters;
    os_block_misses = Array.copy e.os_block_misses;
  }

let find k =
  Metrics_registry.incr m_lookups;
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table k with
      | Some entries ->
          Metrics_registry.incr m_hits;
          Some (Array.map copy entries)
      | None ->
          Metrics_registry.incr m_misses;
          None)

let add k entries =
  let entries = Array.map copy entries in
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem table k) then Hashtbl.add table k entries)

let hits () = Metrics_registry.counter_value m_hits

let misses () = Metrics_registry.counter_value m_misses

let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)
