type event = {
  seq : int;
  name : string;
  begin_ : bool;
  ts : float;
  track : int;
  args : (string * Json.t) list;
}

(* Grow-on-demand event buffer owned by exactly one domain.  The owning
   domain appends without synchronization; merging only happens after the
   owner has been joined (or from the owner itself), so plain mutation is
   safe.  Buffers of dead domains stay registered: their events are part
   of the run's history. *)
type buffer = { mutable items : event array; mutable len : int }

let enabled_flag = Atomic.make false
let seq_counter = Atomic.make 0
let epoch = Unix.gettimeofday ()

let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let dummy_event = { seq = 0; name = ""; begin_ = true; ts = 0.0; track = 0; args = [] }

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { items = Array.make 256 dummy_event; len = 0 } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let track_key = Domain.DLS.new_key (fun () -> 0)

let set_track t = Domain.DLS.set track_key t

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let record ~begin_ ~name ~args ~at =
  let b = Domain.DLS.get buffer_key in
  if b.len = Array.length b.items then begin
    let bigger = Array.make (2 * b.len) dummy_event in
    Array.blit b.items 0 bigger 0 b.len;
    b.items <- bigger
  end;
  b.items.(b.len) <-
    {
      seq = Atomic.fetch_and_add seq_counter 1;
      name;
      begin_;
      ts = (at -. epoch) *. 1e6;
      track = Domain.DLS.get track_key;
      args;
    };
  b.len <- b.len + 1

(* The histogram observation and the begin/end events share two clock
   readings, so a span's recorded duration is exactly its timeline
   width.  [traced] is sampled once: a span that began recording ends
   recording, even if tracing is switched off meanwhile. *)
let with_span ?(args = []) name f =
  let h = Metrics_registry.histogram ("span." ^ name) in
  let traced = Atomic.get enabled_flag in
  let t0 = Unix.gettimeofday () in
  if traced then record ~begin_:true ~name ~args ~at:t0;
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      Metrics_registry.observe h (t1 -. t0);
      if traced then record ~begin_:false ~name ~args:[] ~at:t1)

let events () =
  let buffers = Mutex.protect registry_lock (fun () -> !registry) in
  let all =
    List.concat_map
      (fun b -> List.init b.len (fun i -> b.items.(i)))
      buffers
  in
  List.sort (fun a b -> compare a.seq b.seq) all

let span_count () =
  List.fold_left (fun n e -> if e.begin_ then n else n + 1) 0 (events ())

let to_chrome ?(extra = []) () =
  let event_json e =
    Json.Obj
      ([
         ("name", Json.String e.name);
         ("ph", Json.String (if e.begin_ then "B" else "E"));
         ("ts", Json.Float e.ts);
         ("pid", Json.Int 1);
         ("tid", Json.Int e.track);
       ]
      @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])
  in
  Json.Obj
    ([
       ("traceEvents", Json.List (List.map event_json (events ())));
       ("displayTimeUnit", Json.String "ms");
     ]
    @ extra)

let to_folded () =
  (* Replay each track's begin/end stream against a stack; on every end,
     attribute the span's duration to its full stack.  Events of one track
     are in program order because seq order refines per-domain order and
     successive domains sharing a track never overlap in time. *)
  let totals : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of track =
    match Hashtbl.find_opt stacks track with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks track s;
        s
  in
  List.iter
    (fun e ->
      let stack = stack_of e.track in
      if e.begin_ then stack := (e.name, e.ts) :: !stack
      else
        match !stack with
        | (name, t0) :: rest when name = e.name ->
            stack := rest;
            let frames = List.rev_map fst ((name, t0) :: rest) in
            let key = String.concat ";" frames in
            let dur = e.ts -. t0 in
            Hashtbl.replace totals key
              ((match Hashtbl.find_opt totals key with Some d -> d | None -> 0.0)
              +. dur)
        | _ -> () (* unmatched end: drop rather than corrupt the stack *))
    (events ());
  let lines =
    Hashtbl.fold (fun k d acc -> Printf.sprintf "%s %.0f" k d :: acc) totals []
  in
  String.concat "\n" (List.sort compare lines) ^ if lines = [] then "" else "\n"

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter (fun b -> b.len <- 0) !registry)
