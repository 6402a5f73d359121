type stats = { hits : int; misses : int; seconds : float }

(* A registered stage: its registry handles, which are the only store of
   its counts and build time, and how to drop its memo table. *)
type stage = {
  name : string;
  hit_c : Metrics_registry.counter;
  miss_c : Metrics_registry.counter;
  lookup_c : Metrics_registry.counter;
  build_h : Metrics_registry.histogram;
  clear_table : unit -> unit;
}

(* One lock for every table in the module: stage lookups are O(1) hash
   probes and digest memos are short physical-identity scans, so a single
   lock is never contended for long and keeps the registration order
   trivial. Builds run OUTSIDE the lock. *)
let lock = Mutex.create ()
let enabled_flag = ref true
let stages : stage list ref = ref [] (* reverse registration order *)

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

(* ------------------------------------------------------------------ *)
(* Digests and loop detection                                         *)
(* ------------------------------------------------------------------ *)

let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Physical-identity memo: the process only ever sees a handful of frozen
   graphs (the kernel plus a few application images), so a linear scan
   beats hashing structures that cannot be hashed physically. *)
let graph_digests : (Graph.t * string) list ref = ref []

let graph_digest g =
  match
    Mutex.protect lock (fun () ->
        List.find_opt (fun (g', _) -> g' == g) !graph_digests)
  with
  | Some (_, d) -> d
  | None ->
      let d = md5 g in
      Mutex.protect lock (fun () ->
          match List.find_opt (fun (g', _) -> g' == g) !graph_digests with
          | Some (_, d') -> d'
          | None ->
              graph_digests := (g, d) :: !graph_digests;
              d)

(* Profiles are mutable (Profile.accumulate, scale_to's sharing of
   freshly-built arrays), so a physical memo could serve a stale digest;
   recompute every time.  The arrays are small next to a single
   Sequence.build, and staleness here would silently alias layouts. *)
let profile_digest (p : Profile.t) =
  md5 (p.Profile.block, p.Profile.arc, p.Profile.total_blocks, p.Profile.invocations)

let loops_tbl : (Graph.t * (Loops.t list * string)) list ref = ref []

let find_loops g = List.find_opt (fun (g', _) -> g' == g) !loops_tbl

let loops g =
  match Mutex.protect lock (fun () -> find_loops g) with
  | Some (_, (l, _)) -> l
  | None ->
      let l = Loops.find g in
      let d = md5 l in
      Mutex.protect lock (fun () ->
          match find_loops g with
          | Some (_, (l', _)) -> l' (* racing detection: share the stored list *)
          | None ->
              loops_tbl := (g, (l, d)) :: !loops_tbl;
              l)

let loops_digest g l =
  match Mutex.protect lock (fun () -> find_loops g) with
  | Some (_, (l', d)) when l' == l -> d
  | Some _ | None -> md5 l

(* ------------------------------------------------------------------ *)
(* Stage tables                                                       *)
(* ------------------------------------------------------------------ *)

module type STAGE = sig
  type value

  val name : string
end

module Stage (S : STAGE) = struct
  let table : (string, S.value) Hashtbl.t = Hashtbl.create 64

  let st =
    let metric suffix = "layout_cache." ^ S.name ^ "." ^ suffix in
    let st =
      {
        name = S.name;
        hit_c = Metrics_registry.counter (metric "hits");
        miss_c = Metrics_registry.counter (metric "misses");
        lookup_c = Metrics_registry.counter (metric "lookups");
        build_h = Metrics_registry.histogram (metric "build_seconds");
        clear_table = (fun () -> Hashtbl.reset table);
      }
    in
    Mutex.protect lock (fun () -> stages := st :: !stages);
    st

  let find_or_build ~key f =
    if not !enabled_flag then f ()
    else begin
      Metrics_registry.incr st.lookup_c;
      match Mutex.protect lock (fun () -> Hashtbl.find_opt table key) with
      | Some v ->
          Metrics_registry.incr st.hit_c;
          v
      | None ->
          Metrics_registry.incr st.miss_c;
          let t0 = Unix.gettimeofday () in
          let v = f () in
          Metrics_registry.observe st.build_h (Unix.gettimeofday () -. t0);
          Mutex.protect lock (fun () ->
              match Hashtbl.find_opt table key with
              | Some v' -> v' (* racing build: everyone shares the stored value *)
              | None ->
                  Hashtbl.add table key v;
                  v)
    end
end

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let stage_stats () =
  List.rev_map
    (fun st ->
      ( st.name,
        {
          hits = Metrics_registry.counter_value st.hit_c;
          misses = Metrics_registry.counter_value st.miss_c;
          seconds = Metrics_registry.sum st.build_h;
        } ))
    (Mutex.protect lock (fun () -> !stages))

let totals () =
  List.fold_left
    (fun acc (_, s) ->
      {
        hits = acc.hits + s.hits;
        misses = acc.misses + s.misses;
        seconds = acc.seconds +. s.seconds;
      })
    { hits = 0; misses = 0; seconds = 0.0 }
    (stage_stats ())

let clear () =
  Mutex.protect lock (fun () ->
      List.iter (fun st -> st.clear_table ()) !stages;
      graph_digests := [];
      loops_tbl := [])
