type run = {
  spec_seed : int;
  spec_digest : string;
  words : int;
  seed : int;
  jobs : int;
  context_key : string;
}

let lock = Mutex.create ()
let run_info : run option ref = ref None
let experiments : (string * float) list ref = ref [] (* reverse order *)

let set_run ~spec_seed ~spec_digest ~words ~seed ~jobs ~context_key =
  Mutex.protect lock (fun () ->
      match !run_info with
      | Some _ -> ()
      | None -> run_info := Some { spec_seed; spec_digest; words; seed; jobs; context_key })

let record_experiment ~id ~seconds =
  Mutex.protect lock (fun () -> experiments := (id, seconds) :: !experiments)

let span_prefix = "span."

let batch_fields =
  [
    "calls"; "members"; "cache_hits"; "simulated"; "replay_passes";
    "passes_saved"; "events_replayed"; "events_saved";
  ]

let to_json () =
  let run, experiment_rows =
    Mutex.protect lock (fun () -> (!run_info, List.rev !experiments))
  in
  (* One registry snapshot feeds the stages and batch objects and is
     embedded whole under "metrics", so they cannot disagree. *)
  let metrics = Metrics_registry.to_json () in
  let section name =
    match Json.member name metrics with Some (Json.Obj kvs) -> kvs | _ -> []
  in
  let stage_rows =
    let skip = String.length span_prefix in
    List.filter_map
      (fun (name, h) ->
        match (Json.member "count" h, Json.member "sum" h) with
        | Some (Json.Int count), Some seconds
          when count > 0 && String.starts_with ~prefix:span_prefix name ->
            Some
              (Json.Obj
                 [
                   ( "name",
                     Json.String (String.sub name skip (String.length name - skip)) );
                   ("count", Json.Int count);
                   ("seconds", seconds);
                 ])
        | _ -> None)
      (section "histograms")
  in
  let batch_counter field =
    match List.assoc_opt ("batch." ^ field) (section "counters") with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  let hits = Sim_cache.hits () and misses = Sim_cache.misses () in
  let layout_stages = Layout_cache.stage_stats () in
  let layout_totals = Layout_cache.totals () in
  let layout_hit_rate =
    let lookups = layout_totals.Layout_cache.hits + layout_totals.Layout_cache.misses in
    if lookups = 0 then 0.0
    else float_of_int layout_totals.Layout_cache.hits /. float_of_int lookups
  in
  (* GC statistics are a point sample taken now (manifest emission), not
     an accumulation: quick_stat is cheap and the emission point is the
     end of the run, so the numbers cover the whole pipeline. *)
  let gc_json =
    let g = Gc.quick_stat () in
    Json.Obj
      [
        ("minor_collections", Json.Int g.Gc.minor_collections);
        ("major_collections", Json.Int g.Gc.major_collections);
        ("compactions", Json.Int g.Gc.compactions);
        ("minor_words", Json.Float g.Gc.minor_words);
        ("promoted_words", Json.Float g.Gc.promoted_words);
        ("major_words", Json.Float g.Gc.major_words);
        ("heap_words", Json.Int g.Gc.heap_words);
        ("top_heap_words", Json.Int g.Gc.top_heap_words);
      ]
  in
  Json.Obj
    [
      ("schema_version", Json.Int 4);
      ( "run",
        match run with
        | None -> Json.Null
        | Some r ->
            Json.Obj
              [
                ("spec_seed", Json.Int r.spec_seed);
                ("spec_digest", Json.String r.spec_digest);
                ("words", Json.Int r.words);
                ("seed", Json.Int r.seed);
                ("jobs", Json.Int r.jobs);
                ("context_key", Json.String r.context_key);
                ("gc", gc_json);
              ] );
      ("stages", Json.List stage_rows);
      ( "sim_cache",
        Json.Obj
          [
            ("hits", Json.Int hits);
            ("misses", Json.Int misses);
            ("lookups", Json.Int (hits + misses));
            ("hit_rate", Json.Float (Sim_cache.hit_rate ()));
          ] );
      ( "layout",
        Json.Obj
          [
            ( "stages",
              Json.List
                (List.map
                   (fun (name, (s : Layout_cache.stats)) ->
                     Json.Obj
                       [
                         ("name", Json.String name);
                         ("hits", Json.Int s.Layout_cache.hits);
                         ("misses", Json.Int s.Layout_cache.misses);
                         ( "lookups",
                           Json.Int (s.Layout_cache.hits + s.Layout_cache.misses) );
                         ("seconds", Json.Float s.Layout_cache.seconds);
                       ])
                   layout_stages) );
            ("hit_rate", Json.Float layout_hit_rate);
          ] );
      ( "batch",
        Json.Obj
          (List.map (fun f -> (f, Json.Int (batch_counter f))) batch_fields) );
      ( "experiments",
        Json.List
          (List.map
             (fun (id, seconds) ->
               Json.Obj [ ("id", Json.String id); ("seconds", Json.Float seconds) ])
             experiment_rows) );
      ("metrics", metrics);
    ]
