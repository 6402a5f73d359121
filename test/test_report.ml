open Helpers

(* Properties of the structured report layer: the JSON codec round-trips
   (both the generic Json printer/parser and the Result report codec),
   the CSV renderer honours its quoting rules, and the run Manifest
   upholds the invariants the `icache-opt validate` subcommand checks. *)

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* Finite floats only: NaN is not equal to itself and infinities have no
   JSON literal, so the codec contract excludes them. *)
let finite_float =
  QCheck.map
    (fun (mantissa, exp) -> mantissa *. (10.0 ** float_of_int exp))
    QCheck.(pair (float_bound_inclusive 1.0) (int_range (-6) 6))

let string_gen =
  (* Printable strings plus the CSV-hostile characters. *)
  QCheck.(string_gen_of_size Gen.(int_bound 12) Gen.(oneof [
    char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
    oneofl [ ' '; ','; '"'; '\n'; '%'; '-'; '_'; '.'; '|' ] ]))

let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
            map (fun f -> Json.Float f) (QCheck.gen finite_float);
            map (fun s -> Json.String s) (QCheck.gen string_gen);
          ]
      in
      if n <= 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (QCheck.gen string_gen) (self (n / 2)))) );
          ])

let json_arb = QCheck.make ~print:(fun j -> Json.to_string j) json_gen

let item_gen =
  let open QCheck.Gen in
  let cells = list_size (int_bound 4) (QCheck.gen string_gen) in
  oneof
    [
      map (fun s -> Result.Note s) (QCheck.gen string_gen);
      map (fun s -> Result.Paper_ref s) (QCheck.gen string_gen);
      map3
        (fun label value text -> Result.Scalar { label; value; text })
        (QCheck.gen string_gen) (QCheck.gen finite_float) (QCheck.gen string_gen);
      map2
        (fun label points -> Result.Series { label; points })
        (QCheck.gen string_gen)
        (list_size (int_bound 5)
           (pair (QCheck.gen string_gen) (QCheck.gen finite_float)));
      map3
        (fun title columns rows ->
          Result.Table { title; columns; rows })
        (opt (QCheck.gen string_gen))
        (list_size (int_bound 4)
           (pair (QCheck.gen string_gen) (oneofl [ Table.Left; Table.Right ])))
        (list_size (int_bound 4)
           (frequency
              [
                (4, map (fun c -> Table.Cells c) cells);
                (1, return Table.Separator);
              ]));
    ]

let report_gen =
  let open QCheck.Gen in
  map3
    (fun id section items -> Result.report ~id ~section items)
    (QCheck.gen string_gen) (QCheck.gen string_gen)
    (list_size (int_bound 6) item_gen)

let report_arb =
  QCheck.make ~print:(fun r -> Json.to_string (Result.to_json r)) report_gen

(* ------------------------------------------------------------------ *)
(* Round-trip properties                                              *)
(* ------------------------------------------------------------------ *)

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Json.of_string inverts to_string" json_arb
    (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_json_roundtrip_minified =
  QCheck.Test.make ~count:300 ~name:"Json round-trip survives minify" json_arb
    (fun j ->
      match Json.of_string (Json.to_string ~minify:true j) with
      | Ok j' -> j' = j
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_report_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Result.of_json inverts to_json" report_arb
    (fun r ->
      match Result.of_json (Result.to_json r) with
      | Ok r' -> r' = r
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

let prop_report_roundtrip_via_text =
  QCheck.Test.make ~count:300 ~name:"report JSON survives print/re-parse"
    report_arb (fun r ->
      let text = Result.render Result.Json r in
      match Json.of_string text with
      | Ok j -> (
          match Result.of_json j with
          | Ok r' -> r' = r
          | Error e -> QCheck.Test.fail_reportf "of_json: %s" e)
      | Error e -> QCheck.Test.fail_reportf "of_string: %s" e)

(* ------------------------------------------------------------------ *)
(* Renderer unit checks                                               *)
(* ------------------------------------------------------------------ *)

let test_text_rendering () =
  let r =
    Result.report ~id:"x" ~section:"demo section"
      [ Result.note "hello %d" 42; Result.paper "paper says 3" ]
  in
  let expect =
    Result.section_banner "demo section" ^ "  hello 42\n  [paper] paper says 3\n"
  in
  check_string "banner + note + paper" expect (Result.render_text r)

let test_scalar_text_is_verbatim () =
  let r =
    Result.report ~id:"x" ~section:"s"
      [ Result.scalar ~label:"peak" ~value:12.5 ~text:"peak share: 12.5%" ]
  in
  check_bool "scalar renders its text line" true
    (String.ends_with ~suffix:"  peak share: 12.5%\n" (Result.render_text r))

let test_csv_bare_table_undecorated () =
  let r =
    Result.report ~id:"sweep" ~section:"whatever"
      [
        Result.Table
          {
            title = None;
            columns = [ ("a", Table.Left); ("b", Table.Right) ];
            rows = [ Table.Cells [ "1"; "2" ]; Table.Cells [ "3"; "4" ] ];
          };
      ]
  in
  check_string "bare single table renders as plain CSV" "a,b\n1,2\n3,4\n"
    (Result.render Result.Csv r)

let test_csv_quoting () =
  let r =
    Result.report ~id:"q" ~section:"s"
      [
        Result.Table
          {
            title = None;
            columns = [ ("h", Table.Left) ];
            rows = [ Table.Cells [ "a,b" ]; Table.Cells [ "say \"hi\"" ] ];
          };
      ]
  in
  check_string "commas and quotes get quoted" "h\n\"a,b\"\n\"say \"\"hi\"\"\"\n"
    (Result.render Result.Csv r)

let test_format_of_string () =
  check_bool "text" true (Result.format_of_string "text" = Ok Result.Text);
  check_bool "JSON case-insensitive" true
    (Result.format_of_string "JSON" = Ok Result.Json);
  check_bool "csv" true (Result.format_of_string "csv" = Ok Result.Csv);
  check_bool "unknown rejected" true
    (match Result.format_of_string "yaml" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Manifest invariants                                                *)
(* ------------------------------------------------------------------ *)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "manifest: missing %s" name

let test_manifest_invariants () =
  (* Build a real context so the trace/levels/simulate stages and the
     Sim_cache counters are populated, then check exactly what
     `icache-opt validate` checks. *)
  let ctx = Lazy.force small_context in
  ignore
    (Runner.simulate ctx
       ~layouts:(Levels.build ctx Levels.Base)
       ~system:(fun () -> System.unified (Config.make ~size_kb:8 ()))
       ());
  let m = Manifest.to_json () in
  let version = Json.to_int (member "schema_version" m) in
  check_bool "schema_version >= 1" true (match version with Some v -> v >= 1 | None -> false);
  let stages =
    match member "stages" m with
    | Json.List l -> l
    | _ -> Alcotest.fail "stages is not a list"
  in
  check_bool "at least trace/levels/simulate stages" true
    (List.length stages >= 3);
  let stage_names =
    List.filter_map (fun s -> Json.to_str (member "name" s)) stages
  in
  List.iter
    (fun n ->
      check_bool (n ^ " stage present") true (List.mem n stage_names))
    [ "trace_capture"; "levels_build"; "simulate" ];
  List.iter
    (fun s ->
      let seconds = Json.to_float (member "seconds" s) in
      let count = Json.to_int (member "count" s) in
      check_bool "stage seconds >= 0" true
        (match seconds with Some x -> x >= 0.0 | None -> false);
      check_bool "stage count >= 1" true
        (match count with Some c -> c >= 1 | None -> false))
    stages;
  let sc = member "sim_cache" m in
  let geti n = match Json.to_int (member n sc) with
    | Some v -> v
    | None -> Alcotest.failf "sim_cache %s not an int" n
  in
  check_int "hits + misses = lookups" (geti "lookups") (geti "hits" + geti "misses");
  (* Schema v3: the layout object mirrors Layout_cache per stage. *)
  let lay = member "layout" m in
  (match member "stages" lay with
  | Json.List l ->
      List.iter
        (fun s ->
          let geti n =
            match Json.to_int (member n s) with
            | Some v -> v
            | None -> Alcotest.failf "layout stage %s not an int" n
          in
          check_int "layout hits + misses = lookups" (geti "lookups")
            (geti "hits" + geti "misses");
          check_bool "layout stage seconds >= 0" true
            (match Json.to_float (member "seconds" s) with
            | Some x -> x >= 0.0
            | None -> false))
        l
  | _ -> Alcotest.fail "layout stages is not a list")

let test_manifest_experiment_timing () =
  let ctx = Lazy.force small_context in
  let e = Experiments.find "fig9" in
  ignore (Experiments.compute e ctx);
  let m = Manifest.to_json () in
  let exps =
    match member "experiments" m with
    | Json.List l -> l
    | _ -> Alcotest.fail "experiments is not a list"
  in
  let entry =
    List.find_opt
      (fun e -> Json.to_str (member "id" e) = Some "fig9")
      exps
  in
  match entry with
  | None -> Alcotest.fail "fig9 missing from manifest experiments"
  | Some e ->
      check_bool "experiment seconds >= 0" true
        (match Json.to_float (member "seconds" e) with
        | Some s -> s >= 0.0
        | None -> false)

(* The manifest's stage rows are read back from the span histograms, so
   over any window they count exactly the spans the timeline recorded --
   including the batch path's "simulate" replays -- whatever the domain
   count.  A fresh seed per run keeps the Levels and Sim_cache memos
   cold, so every pipeline stage runs inside the window. *)
let pipeline_window ~traced ~seed =
  Metrics_registry.reset ();
  Trace_log.reset ();
  Trace_log.set_enabled traced;
  Fun.protect ~finally:(fun () -> Trace_log.set_enabled false) @@ fun () ->
  let ctx = Context.create ~spec:Spec.small ~words:150_000 ~seed () in
  let layouts = Levels.build ctx Levels.Base in
  let config = Config.make ~size_kb:8 () in
  ignore (Runner.simulate ctx ~layouts ~system:(fun () -> System.unified config) ());
  ignore (Runner.simulate_batch ctx ~members:[| (layouts, config) |] ())

let manifest_stage_counts () =
  match member "stages" (Manifest.to_json ()) with
  | Json.List l ->
      List.map
        (fun s ->
          match (Json.to_str (member "name" s), Json.to_int (member "count" s)) with
          | Some n, Some c -> (n, c)
          | _ -> Alcotest.fail "stage row without name/count")
        l
  | _ -> Alcotest.fail "stages is not a list"

let test_manifest_matches_trace () =
  let jobs0 = Parallel.default_jobs () in
  Fun.protect ~finally:(fun () -> Parallel.set_jobs jobs0) @@ fun () ->
  List.iter
    (fun jobs ->
      Parallel.set_jobs jobs;
      pipeline_window ~traced:true ~seed:(100 + jobs);
      let spans : (string, int) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun (e : Trace_log.event) ->
          if not e.Trace_log.begin_ then
            Hashtbl.replace spans e.Trace_log.name
              (1 + Option.value ~default:0 (Hashtbl.find_opt spans e.Trace_log.name)))
        (Trace_log.events ());
      Trace_log.reset ();
      let rows = manifest_stage_counts () in
      List.iter
        (fun (name, count) ->
          check_int
            (Printf.sprintf "jobs=%d: %s row counts its spans" jobs name)
            (Option.value ~default:0 (Hashtbl.find_opt spans name))
            count)
        rows;
      check_int (Printf.sprintf "jobs=%d: one row per span name" jobs)
        (Hashtbl.length spans) (List.length rows);
      check_int (Printf.sprintf "jobs=%d: simulate covers both entry points" jobs) 2
        (List.assoc "simulate" rows))
    [ 1; 4 ];
  pipeline_window ~traced:false ~seed:99;
  check_int "untraced: no events" 0 (List.length (Trace_log.events ()));
  let rows = manifest_stage_counts () in
  List.iter
    (fun n -> check_bool ("untraced: " ^ n ^ " row present") true (List.mem_assoc n rows))
    [ "trace_capture"; "levels_build"; "simulate" ]

let () =
  Alcotest.run "report"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_json_roundtrip;
            prop_json_roundtrip_minified;
            prop_report_roundtrip;
            prop_report_roundtrip_via_text;
          ] );
      ( "renderers",
        [
          case "text banner/note/paper" test_text_rendering;
          case "scalar text verbatim" test_scalar_text_is_verbatim;
          case "csv bare table" test_csv_bare_table_undecorated;
          case "csv quoting" test_csv_quoting;
          case "format_of_string" test_format_of_string;
        ] );
      ( "manifest",
        [
          case "stage and sim-cache invariants" test_manifest_invariants;
          case "per-experiment timing" test_manifest_experiment_timing;
          case "stage rows match trace spans" test_manifest_matches_trace;
        ] );
    ]
