(* icache-opt: command-line driver for the reproduction pipeline.

   Subcommands:
     list         - list the reproduced tables and figures
     repro        - run experiments (all, or by id); --format text|json|csv
     simulate     - simulate one workload/layout/cache combination
     characterize - print the kernel and workload characterization
     validate     - check a repro JSON document (reports + manifest) *)

open Cmdliner

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let words_arg =
  let doc = "Instruction words to trace per workload." in
  Arg.(value & opt positive_int 2_000_000 & info [ "words" ] ~docv:"N" ~doc)

(* Cache geometry flags are checked together, by the library's own
   validation, before any work starts: a bad combination is a usage
   error (exit 124), not an uncaught exception. *)
let geometry size_kb assoc line =
  Stdlib.Result.map_error
    (fun e -> `Msg (Printf.sprintf "cache %dKB/%dway/%dB: %s" size_kb assoc line e))
    (Config.check ~size:(size_kb * 1024) ~assoc ~line)

let seed_arg =
  let doc = "Engine seed (the kernel itself is always built from the spec seed)." in
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc)

let small_arg =
  let doc = "Use the scaled-down test kernel instead of the calibrated one." in
  Arg.(value & flag & info [ "small" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for trace capture and simulation (default: \
     $(b,ICACHE_JOBS) or the core count).  Results are identical for every \
     value; only wall-clock changes."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Both converters funnel every CLI spelling through the library's single
   parser, so the accepted names cannot drift between subcommands. *)
let level_conv =
  let parse s =
    match Levels.of_string s with Ok l -> Ok l | Error e -> Error (`Msg e)
  in
  let print ppf l = Format.pp_print_string ppf (Levels.to_string l) in
  Arg.conv ~docv:"LEVEL" (parse, print)

let format_conv =
  let parse s =
    match Result.format_of_string s with Ok f -> Ok f | Error e -> Error (`Msg e)
  in
  let print ppf f = Format.pp_print_string ppf (Result.format_to_string f) in
  Arg.conv ~docv:"FORMAT" (parse, print)

(* Malformed --trace document; both trace-summary and validate turn this
   into their own error reporting. *)
exception Trace_error of string

let tfail fmt = Printf.ksprintf (fun s -> raise (Trace_error s)) fmt

(* Decode the traceEvents list of a Chrome trace document into
   (name, phase, ts, tid) tuples, in file order (which is the recording
   order).  Raises {!Trace_error} on shape problems. *)
let chrome_events doc =
  match Json.member "traceEvents" doc with
  | Some (Json.List l) ->
      List.mapi
        (fun i e ->
          let str field =
            match Option.bind (Json.member field e) Json.to_str with
            | Some s -> s
            | None -> tfail "event %d: missing %s" i field
          in
          let name = str "name" in
          let ph = str "ph" in
          let ts =
            match Option.bind (Json.member "ts" e) Json.to_float with
            | Some f -> f
            | None -> tfail "event %d (%s): missing ts" i name
          in
          let tid =
            match Option.bind (Json.member "tid" e) Json.to_int with
            | Some t -> t
            | None -> tfail "event %d (%s): missing tid" i name
          in
          (name, ph, ts, tid))
        l
  | _ -> tfail "trace: missing traceEvents list"

(* Replay a decoded event stream against per-track span stacks, calling
   [on_span name tid dur_us] for every balanced begin/end pair; raises
   {!Trace_error} on malformed nesting.  Returns the open stacks for the
   caller to check emptiness. *)
let fold_spans ~on_span events =
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, ph, ts, tid) ->
      let stack =
        match Hashtbl.find_opt stacks tid with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks tid s;
            s
      in
      match ph with
      | "B" -> stack := (name, ts) :: !stack
      | "E" -> (
          match !stack with
          | (n, t0) :: rest when n = name ->
              stack := rest;
              on_span name tid (ts -. t0)
          | (n, _) :: _ ->
              tfail "track %d: end of %S does not match innermost open span %S" tid
                name n
          | [] -> tfail "track %d: end of %S with no open span" tid name)
      | other -> tfail "event %s: unsupported phase %S" name other)
    events;
  stacks

let trace_arg =
  let doc =
    "Record a span timeline of the run and write it to $(docv) as Chrome \
     trace-event JSON (one track per worker domain; open in Perfetto or \
     chrome://tracing, or summarize with $(b,icache-opt trace-summary))."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let make_context ~small ~words ~seed ~jobs =
  Option.iter Parallel.set_jobs jobs;
  let spec = if small then Spec.small else Spec.default in
  Context.create ~spec ~words ~seed ()

let write_manifest path =
  Out.with_file path (fun oc ->
      output_string oc (Json.to_string (Manifest.to_json ()));
      output_char oc '\n')

(* The trace document is the Chrome trace plus the metrics snapshot under
   an extra key viewers ignore, so one artifact carries both the timeline
   and the histogram/counter summary trace-summary prints. *)
let start_trace trace = if trace <> None then Trace_log.set_enabled true

let finish_trace trace =
  Option.iter
    (fun path ->
      Out.with_file path (fun oc ->
          (* Minified: traces carry thousands of events and viewers never
             show the raw text. *)
          output_string oc
            (Json.to_string ~minify:true
               (Trace_log.to_chrome
                  ~extra:[ ("metrics", Metrics_registry.to_json ()) ]
                  ()));
          output_char oc '\n');
      (* stderr: stdout may be a piped JSON report stream. *)
      if path <> "-" then
        Printf.eprintf "wrote %s (%d spans; open in https://ui.perfetto.dev)\n%!"
          path (Trace_log.span_count ()))
    trace

(* ------------------------------------------------------------------ *)
(* list                                                               *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.t) ->
        Printf.printf "  %-8s %s\n" e.Experiments.id e.Experiments.title)
      Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the reproduced tables and figures")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* repro                                                              *)
(* ------------------------------------------------------------------ *)

let repro_cmd =
  let ids_arg =
    let doc = "Experiment ids (e.g. table1 fig12); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let format_arg =
    let doc = "Output format: text (the classic transcript), json or csv." in
    Arg.(value & opt format_conv Result.Text & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc =
      "Write one file per experiment (ID.txt/ID.json/ID.csv) plus \
       manifest.json into this directory instead of printing to stdout."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run words seed small jobs format out trace ids =
    start_trace trace;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let exps =
      match ids with
      | [] -> Experiments.all
      | ids ->
          List.map
            (fun id ->
              match Experiments.find id with
              | e -> e
              | exception Not_found ->
                  Printf.eprintf "unknown experiment %S; try 'icache-opt list'\n" id;
                  exit 1)
            ids
    in
    (match out with
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        List.iter
          (fun e ->
            let r = Experiments.compute e ctx in
            let path =
              Filename.concat dir (r.Result.id ^ "." ^ Result.extension format)
            in
            Out.with_file path (fun oc -> output_string oc (Result.render format r));
            Printf.printf "wrote %s\n%!" path)
          exps;
        let mpath = Filename.concat dir "manifest.json" in
        write_manifest mpath;
        Printf.printf "wrote %s\n%!" mpath
    | None -> (
        match format with
        | Result.Text -> List.iter (fun e -> Experiments.run e ctx) exps
        | Result.Json ->
            (* One document: every report plus the run manifest, so a
               single pipe carries both the results and the provenance. *)
            let reports = List.map (fun e -> Experiments.compute e ctx) exps in
            let doc =
              Json.Obj
                [
                  ("reports", Json.List (List.map Result.to_json reports));
                  ("manifest", Manifest.to_json ());
                ]
            in
            print_string (Json.to_string doc);
            print_newline ()
        | Result.Csv ->
            List.iter
              (fun e ->
                print_string (Result.render Result.Csv (Experiments.compute e ctx)))
              exps));
    finish_trace trace
  in
  Cmd.v
    (Cmd.info "repro" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ format_arg
      $ out_arg $ trace_arg $ ids_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                           *)
(* ------------------------------------------------------------------ *)

let simulate_cmd =
  let workload_arg =
    let doc = "Workload index 0-3 (TRFD_4, TRFD+Make, ARC2D+Fsck, Shell)." in
    Arg.(value & opt int 0 & info [ "w"; "workload" ] ~docv:"I" ~doc)
  in
  let level_arg =
    let doc = "Layout level: base, ch, opts, optl or opta." in
    Arg.(value & opt level_conv Levels.OptS & info [ "l"; "level" ] ~docv:"LEVEL" ~doc)
  in
  let size_arg =
    let doc = "Cache size in KB (power of two)." in
    Arg.(value & opt int 8 & info [ "size-kb" ] ~docv:"KB" ~doc)
  in
  let assoc_arg =
    let doc = "Associativity (power of two; 1 = direct-mapped)." in
    Arg.(value & opt int 1 & info [ "assoc" ] ~docv:"WAYS" ~doc)
  in
  let line_arg =
    let doc = "Line size in bytes (power of two)." in
    Arg.(value & opt int 32 & info [ "line" ] ~docv:"BYTES" ~doc)
  in
  let config_arg =
    Term.(cli_parse_result (const geometry $ size_arg $ assoc_arg $ line_arg))
  in
  let run words seed small jobs w level config =
    let ctx = make_context ~small ~words ~seed ~jobs in
    if w < 0 || w >= Context.workload_count ctx then begin
      Printf.eprintf "workload index out of range\n";
      exit 1
    end;
    let layouts = Levels.build ctx level in
    let runs =
      Runner.simulate ctx ~layouts
        ~system:(fun () -> System.unified config)
        ()
    in
    let c = runs.(w).Runner.counters in
    Printf.printf "workload %s, layout %s, cache %s\n"
      (Context.workload_names ctx).(w) (Levels.to_string level)
      (Config.to_string config);
    Printf.printf "  references  %12d words\n" (Counters.refs c);
    Printf.printf "  misses      %12d (%.3f%%)\n" (Counters.misses c)
      (100.0 *. Counters.miss_rate c);
    Printf.printf "    OS:  cold %d, self %d, cross %d\n" c.Counters.os_cold
      c.Counters.os_self c.Counters.os_cross;
    Printf.printf "    app: cold %d, self %d, cross %d\n" c.Counters.app_cold
      c.Counters.app_self c.Counters.app_cross
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one workload / layout / cache combination")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ workload_arg
      $ level_arg $ config_arg)

(* ------------------------------------------------------------------ *)
(* layout                                                             *)
(* ------------------------------------------------------------------ *)

let layout_cmd =
  let out_arg =
    let doc = "Write the layout map here ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let level_arg =
    let doc = "Layout to emit: base, ch, opts, optl or opta." in
    Arg.(value & opt level_conv Levels.OptS & info [ "l"; "level" ] ~docv:"LEVEL" ~doc)
  in
  let run words seed small jobs level out =
    let ctx = make_context ~small ~words ~seed ~jobs in
    let model = ctx.Context.model in
    let g = Context.os_graph ctx in
    let profile = ctx.Context.avg_os_profile in
    let map =
      match level with
      | Levels.Base -> Base.layout g ~order:model.Model.base_order
      | Levels.CH -> Chang_hwu.layout g profile
      | Levels.OptS | Levels.OptA ->
          (* OptA differs from OptS only on the application images; the OS
             map this subcommand emits is the same. *)
          (Opt.os_layout ~model ~profile ~loops:(Context.os_loops ctx)
             (Opt.params ()))
            .Opt.map
      | Levels.OptL ->
          (Opt.os_layout ~model ~profile ~loops:(Context.os_loops ctx)
             (Opt.params ~extract_loops:true ()))
            .Opt.map
    in
    Out.with_file out (fun oc -> Layout_file.write_channel oc ~graph:g map);
    if out <> "-" then
      Printf.printf "wrote %s (%d blocks, extent %d bytes)\n" out
        (Address_map.placed_count map) (Address_map.extent map)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Emit a kernel code placement as a linker-map-like file")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ level_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let routine_arg =
    let doc = "Routine name to draw (e.g. clock_intr)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ROUTINE" ~doc)
  in
  let out_arg =
    let doc = "Output .dot file ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs name out =
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    let found = ref None in
    Graph.iter_routines g (fun r ->
        if r.Routine.name = name then found := Some r);
    match !found with
    | None ->
        Printf.eprintf "no routine named %S\n" name;
        exit 1
    | Some r ->
        let s =
          Dot.routine_to_string g
            ~weights:ctx.Context.avg_os_profile.Profile.block
            ~loops:(Context.os_loops ctx) r
        in
        Out.with_file out (fun oc -> output_string oc s);
        if out <> "-" then Printf.printf "wrote %s\n" out
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export one kernel routine's flow graph as Graphviz dot")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ routine_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                              *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let list_arg name default doc =
    Arg.(value & opt (list int) default & info [ name ] ~docv:"N,..." ~doc)
  in
  let sizes_arg = list_arg "sizes" [ 4; 8; 16; 32 ] "Cache sizes in KB." in
  let assocs_arg = list_arg "assocs" [ 1 ] "Associativities." in
  let lines_arg = list_arg "lines" [ 32 ] "Line sizes in bytes." in
  (* Every (size, assoc, line) cell, sizes-major; the first invalid one
     is the error. *)
  let geometries sizes assocs lines =
    let cells =
      List.concat_map
        (fun size_kb ->
          List.concat_map
            (fun assoc ->
              List.map
                (fun line ->
                  Stdlib.Result.map
                    (fun c -> (size_kb, assoc, line, c))
                    (geometry size_kb assoc line))
                lines)
            assocs)
        sizes
    in
    match List.find_opt Stdlib.Result.is_error cells with
    | Some (Error e) -> Error e
    | _ -> Ok (List.map Stdlib.Result.get_ok cells)
  in
  let geometries_arg =
    Term.(cli_parse_result (const geometries $ sizes_arg $ assocs_arg $ lines_arg))
  in
  let levels_arg =
    let doc = "Layout levels (base, ch, opts, optl, opta)." in
    Arg.(
      value
      & opt (list level_conv) [ Levels.Base; Levels.OptS ]
      & info [ "levels" ] ~docv:"L,..." ~doc)
  in
  let format_arg =
    let doc = "Output format: csv (default), json or text." in
    Arg.(value & opt format_conv Result.Csv & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc = "Output file ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs geometries levels format out trace =
    start_trace trace;
    let ctx = make_context ~small ~words ~seed ~jobs in
    let columns =
      List.map
        (fun h -> (h, Table.Left))
        [
          "level"; "size_kb"; "assoc"; "line"; "workload"; "refs"; "misses";
          "miss_rate"; "os_self"; "os_cross"; "app_self"; "app_cross";
        ]
    in
    (* The whole cross-product is one batch: every geometry of a level
       shares that level's single replay pass per workload, so the trace
       decode cost is paid (levels x workloads) times, not
       (levels x sizes x assocs x lines x workloads) times. *)
    let specs =
      List.concat_map
        (fun level ->
          let layouts = Levels.build ctx level in
          List.map
            (fun (size_kb, assoc, line, config) ->
              (level, size_kb, assoc, line, (layouts, config)))
            geometries)
        levels
    in
    let batch =
      Runner.simulate_batch ctx
        ~members:(Array.of_list (List.map (fun (_, _, _, _, m) -> m) specs))
        ()
    in
    let rows = ref [] in
    List.iteri
      (fun m (level, size_kb, assoc, line, _member) ->
        Array.iteri
          (fun i (r : Runner.run) ->
            let c = r.Runner.counters in
            rows :=
              Table.Cells
                [
                  Levels.to_string level;
                  string_of_int size_kb;
                  string_of_int assoc;
                  string_of_int line;
                  (Context.workload_names ctx).(i);
                  string_of_int (Counters.refs c);
                  string_of_int (Counters.misses c);
                  Printf.sprintf "%.6f" (Counters.miss_rate c);
                  string_of_int c.Counters.os_self;
                  string_of_int c.Counters.os_cross;
                  string_of_int c.Counters.app_self;
                  string_of_int c.Counters.app_cross;
                ]
              :: !rows)
          batch.(m))
      specs;
    let report =
      Result.report ~id:"sweep" ~section:"cache/layout sweep"
        [ Result.Table { title = None; columns; rows = List.rev !rows } ]
    in
    Out.with_file out (fun oc -> output_string oc (Result.render format report));
    if out <> "-" then Printf.printf "wrote %s\n" out;
    finish_trace trace
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Cross-product cache/layout sweep, one CSV row per cell")
    Term.(
      const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ geometries_arg
      $ levels_arg $ format_arg $ out_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                            *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let out_arg =
    let doc = "Write the averaged OS profile here ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small jobs out =
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    let p = ctx.Context.avg_os_profile in
    Out.with_file out (fun oc -> Profile_file.write_channel oc ~graph:g p);
    if out <> "-" then
      Printf.printf "wrote %s (%d executed blocks, %.0f invocations)\n" out
        (Profile.executed_block_count p) p.Profile.invocations
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Trace the four workloads and emit the averaged OS profile")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                              *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let workload_arg =
    let doc = "Workload index 0-3 (TRFD_4, TRFD+Make, ARC2D+Fsck, Shell)." in
    Arg.(value & opt int 0 & info [ "w"; "workload" ] ~docv:"I" ~doc)
  in
  let out_arg =
    let doc = "Binary trace output file." in
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run words seed small w out =
    let spec = if small then Spec.small else Spec.default in
    let model = Generator.generate spec in
    let pairs = Workload.standard_programs model in
    if w < 0 || w >= Array.length pairs then begin
      Printf.eprintf "workload index out of range\n";
      exit 1
    end;
    let workload, program = pairs.(w) in
    let trace, stats = Engine.capture ~program ~workload ~words ~seed in
    Trace_file.save out trace;
    Printf.printf "wrote %s: %d events, %d instruction words (%s)\n" out
      (Trace.length trace) stats.Engine.total_words workload.Workload.name
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Capture one workload's instruction trace to a binary file")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ workload_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* characterize                                                       *)
(* ------------------------------------------------------------------ *)

let characterize_cmd =
  let run words seed small jobs =
    let ctx = make_context ~small ~words ~seed ~jobs in
    let g = Context.os_graph ctx in
    Printf.printf "kernel: %d routines, %d blocks, %d bytes of code\n"
      (Graph.routine_count g) (Graph.block_count g) (Graph.code_bytes g);
    Array.iteri
      (fun i ((w : Workload.t), _) ->
        let p = ctx.Context.os_profiles.(i) in
        let s = ctx.Context.stats.(i) in
        Printf.printf "%-12s OS words %9d  invocations %6d  executed %6d bytes (%4.1f%%)\n"
          w.Workload.name s.Engine.os_words
          (Array.fold_left ( + ) 0 s.Engine.invocations)
          (Profile.executed_bytes p g)
          (Stats.pct (Profile.executed_bytes p g) (Graph.code_bytes g)))
      ctx.Context.pairs
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Summarize the kernel and the traced workloads")
    Term.(const run $ words_arg $ seed_arg $ small_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* trace-summary                                                      *)
(* ------------------------------------------------------------------ *)

let trace_summary_cmd =
  let file_arg =
    let doc = "Chrome trace JSON written by --trace ('-' = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "How many spans to print (by total time)." in
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc)
  in
  let run file top =
    let fail msg =
      Printf.eprintf "trace-summary: %s\n" msg;
      exit 1
    in
    let text =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    let doc = match Json.of_string text with Ok d -> d | Error e -> fail e in
    let events = try chrome_events doc with Trace_error e -> fail e in
    (* name -> (count, total us, max us) *)
    let totals : (string, int * float * float) Hashtbl.t = Hashtbl.create 32 in
    let tracks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter (fun (_, _, _, tid) -> Hashtbl.replace tracks tid ()) events;
    (try
       ignore
         (fold_spans
            ~on_span:(fun name _tid dur ->
              let c, t, m =
                match Hashtbl.find_opt totals name with
                | Some x -> x
                | None -> (0, 0.0, 0.0)
              in
              Hashtbl.replace totals name (c + 1, t +. dur, Float.max m dur))
            events)
     with Trace_error e -> fail e);
    let rows = Hashtbl.fold (fun n x acc -> (n, x) :: acc) totals [] in
    let rows =
      List.sort (fun (_, (_, a, _)) (_, (_, b, _)) -> compare b a) rows
    in
    let span_total = List.fold_left (fun acc (_, (_, t, _)) -> acc +. t) 0.0 rows in
    Printf.printf "%d events, %d spans on %d track(s), %.2fs of span time\n\n"
      (List.length events)
      (List.fold_left (fun acc (_, (c, _, _)) -> acc + c) 0 rows)
      (Hashtbl.length tracks) (span_total /. 1e6);
    Printf.printf "  %10s %8s %12s %12s  %s\n" "total s" "count" "mean ms" "max ms" "span";
    List.iteri
      (fun i (name, (count, total, max_us)) ->
        if i < top then
          Printf.printf "  %10.3f %8d %12.3f %12.3f  %s\n" (total /. 1e6) count
            (total /. float_of_int count /. 1e3)
            (max_us /. 1e3) name)
      rows;
    match Json.member "metrics" doc with
    | None -> ()
    | Some mx ->
        (match Json.member "counters" mx with
        | Some (Json.Obj kvs) when kvs <> [] ->
            Printf.printf "\ncounters:\n";
            List.iter
              (fun (n, v) ->
                match Json.to_int v with
                | Some i -> Printf.printf "  %-32s %12d\n" n i
                | None -> ())
              kvs
        | _ -> ());
        (match Json.member "histograms" mx with
        | Some (Json.Obj hs) when hs <> [] ->
            Printf.printf "\nhistograms:\n";
            Printf.printf "  %-32s %8s %12s %12s %12s %12s  %s\n" "" "count" "mean"
              "p50" "p90" "p99" "unit";
            List.iter
              (fun (n, h) ->
                let f field =
                  match Option.bind (Json.member field h) Json.to_float with
                  | Some x -> x
                  | None -> 0.0
                in
                let unit_ =
                  Option.value ~default:""
                    (Option.bind (Json.member "unit" h) Json.to_str)
                in
                let count =
                  match Option.bind (Json.member "count" h) Json.to_int with
                  | Some c -> c
                  | None -> 0
                in
                Printf.printf "  %-32s %8d %12.4g %12.4g %12.4g %12.4g  %s\n" n
                  count (f "mean") (f "p50") (f "p90") (f "p99") unit_)
              hs
        | _ -> ())
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarize a --trace file: hot spans and metric distributions")
    Term.(const run $ file_arg $ top_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                           *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let file_arg =
    let doc = "JSON document to validate ('-' = stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "invalid: %s\n" s;
        exit 1)
      fmt
  in
  let get_int what j =
    match Json.to_int j with Some i -> i | None -> fail "%s: expected an integer" what
  in
  let get_float what j =
    match Json.to_float j with Some f -> f | None -> fail "%s: expected a number" what
  in
  let get_str what j =
    match Json.to_str j with Some s -> s | None -> fail "%s: expected a string" what
  in
  (* Shared by the manifest path (schema v4 embeds a snapshot) and the
     trace path (--trace files carry one under "metrics"). *)
  let check_metrics mx =
    let counters =
      match Json.member "counters" mx with
      | Some (Json.Obj kvs) -> kvs
      | _ -> fail "metrics: missing counters object"
    in
    List.iter
      (fun (n, v) ->
        match Json.to_int v with
        | Some i -> if i < 0 then fail "metrics counter %s: %d < 0" n i
        | None -> fail "metrics counter %s: not an integer" n)
      counters;
    let value n = Option.bind (List.assoc_opt n counters) Json.to_int in
    (* Any counter named X.hits, X.misses or X.lookups makes X a lookup
       trio (Sim_cache, every Layout_cache stage): all three must exist
       and X.hits + X.misses = X.lookups. *)
    let trio_prefix n =
      List.find_map
        (fun suffix ->
          if String.ends_with ~suffix n then
            Some (String.sub n 0 (String.length n - String.length suffix))
          else None)
        [ ".hits"; ".misses"; ".lookups" ]
    in
    List.iter
      (fun prefix ->
        match
          ( value (prefix ^ ".hits"),
            value (prefix ^ ".misses"),
            value (prefix ^ ".lookups") )
        with
        | Some h, Some m, Some l ->
            if h + m <> l then
              fail "metrics: %s hits %d + misses %d <> lookups %d" prefix h m l
        | _ -> fail "metrics: incomplete %s hits/misses/lookups trio" prefix)
      (List.sort_uniq compare (List.filter_map (fun (n, _) -> trio_prefix n) counters));
    match Json.member "histograms" mx with
    | Some (Json.Obj hs) ->
        List.iter
          (fun (n, h) ->
            let gf field =
              match Option.bind (Json.member field h) Json.to_float with
              | Some f -> f
              | None -> fail "metrics histogram %s: missing %s" n field
            in
            let count =
              match Option.bind (Json.member "count" h) Json.to_int with
              | Some c -> c
              | None -> fail "metrics histogram %s: missing count" n
            in
            if count < 0 then fail "metrics histogram %s: count %d < 0" n count;
            let p50 = gf "p50" and p90 = gf "p90" and p99 = gf "p99" in
            if not (p50 <= p90 && p90 <= p99) then
              fail "metrics histogram %s: percentiles not monotone (%g/%g/%g)" n p50
                p90 p99;
            if count > 0 && not (gf "min" <= gf "max") then
              fail "metrics histogram %s: min > max" n)
          hs
    | _ -> fail "metrics: missing histograms object"
  in
  let check_gc g =
    List.iter
      (fun field ->
        match Json.member field g with
        | Some v ->
            let x = get_float ("gc " ^ field) v in
            if not (x >= 0.0) then fail "gc %s: %g < 0" field x
        | None -> fail "gc: missing %s" field)
      [
        "minor_collections"; "major_collections"; "compactions"; "minor_words";
        "promoted_words"; "major_words"; "heap_words"; "top_heap_words";
      ]
  in
  let check_manifest m =
    let schema_version =
      match Json.member "schema_version" m with
      | Some v ->
          let v = get_int "schema_version" v in
          if v < 1 then fail "schema_version %d < 1" v;
          v
      | None -> fail "manifest: missing schema_version"
    in
    let stages =
      match Json.member "stages" m with
      | Some (Json.List l) -> l
      | _ -> fail "manifest: missing stages list"
    in
    List.iter
      (fun s ->
        let name =
          match Json.member "name" s with
          | Some n -> get_str "stage name" n
          | None -> fail "stage: missing name"
        in
        let count =
          match Json.member "count" s with
          | Some c -> get_int "stage count" c
          | None -> fail "stage %s: missing count" name
        in
        let seconds =
          match Json.member "seconds" s with
          | Some x -> get_float "stage seconds" x
          | None -> fail "stage %s: missing seconds" name
        in
        if count < 1 then fail "stage %s: count %d < 1" name count;
        if not (seconds >= 0.0) then fail "stage %s: seconds %g < 0" name seconds)
      stages;
    (match Json.member "sim_cache" m with
    | Some sc ->
        let g name =
          match Json.member name sc with
          | Some v -> get_int ("sim_cache " ^ name) v
          | None -> fail "sim_cache: missing %s" name
        in
        let hits = g "hits" and misses = g "misses" and lookups = g "lookups" in
        if hits < 0 || misses < 0 then fail "sim_cache: negative counters";
        if hits + misses <> lookups then
          fail "sim_cache: hits %d + misses %d <> lookups %d" hits misses lookups
    | None -> fail "manifest: missing sim_cache");
    (match Json.member "layout" m with
    | Some lay ->
        let stages =
          match Json.member "stages" lay with
          | Some (Json.List l) -> l
          | _ -> fail "layout: missing stages list"
        in
        List.iter
          (fun s ->
            let name =
              match Json.member "name" s with
              | Some n -> get_str "layout stage name" n
              | None -> fail "layout stage: missing name"
            in
            let g field =
              match Json.member field s with
              | Some v -> get_int ("layout stage " ^ field) v
              | None -> fail "layout stage %s: missing %s" name field
            in
            let hits = g "hits" and misses = g "misses" and lookups = g "lookups" in
            if hits < 0 || misses < 0 then
              fail "layout stage %s: negative counters" name;
            if hits + misses <> lookups then
              fail "layout stage %s: hits %d + misses %d <> lookups %d" name hits
                misses lookups;
            match Json.member "seconds" s with
            | Some x ->
                let v = get_float "layout stage seconds" x in
                if not (v >= 0.0) then fail "layout stage %s: seconds %g < 0" name v
            | None -> fail "layout stage %s: missing seconds" name)
          stages;
        (match Json.member "hit_rate" lay with
        | Some x ->
            let v = get_float "layout hit_rate" x in
            if not (v >= 0.0 && v <= 1.0) then fail "layout hit_rate %g not in [0,1]" v
        | None -> fail "layout: missing hit_rate")
    | None ->
        if schema_version >= 3 then fail "manifest: missing layout (schema v3+)");
    (match Json.member "batch" m with
    | Some b ->
        let g name =
          match Json.member name b with
          | Some v -> get_int ("batch " ^ name) v
          | None -> fail "batch: missing %s" name
        in
        List.iter
          (fun name -> if g name < 0 then fail "batch: %s %d < 0" name (g name))
          [
            "calls"; "members"; "cache_hits"; "simulated"; "replay_passes";
            "passes_saved"; "events_replayed"; "events_saved";
          ];
        if g "cache_hits" + g "simulated" > g "members" then
          fail "batch: cache_hits %d + simulated %d > members %d" (g "cache_hits")
            (g "simulated") (g "members")
    | None ->
        if schema_version >= 2 then fail "manifest: missing batch (schema v2+)");
    (match Json.member "experiments" m with
    | Some (Json.List l) ->
        List.iter
          (fun e ->
            match Json.member "seconds" e with
            | Some x ->
                let s = get_float "experiment seconds" x in
                if not (s >= 0.0) then fail "experiment seconds %g < 0" s
            | None -> fail "experiment entry: missing seconds")
          l
    | _ -> fail "manifest: missing experiments list");
    (match Json.member "metrics" m with
    | Some mx -> check_metrics mx
    | None ->
        if schema_version >= 4 then fail "manifest: missing metrics (schema v4+)");
    (match Json.member "run" m with
    | Some Json.Null | None -> ()
    | Some r -> (
        match Json.member "gc" r with
        | Some g -> check_gc g
        | None -> if schema_version >= 4 then fail "run: missing gc (schema v4+)"));
    List.length stages
  in
  let run file =
    let text =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_bin file In_channel.input_all
    in
    match Json.of_string text with
    | Error e -> fail "%s" e
    | Ok doc when Json.member "traceEvents" doc <> None ->
        (* A --trace artifact: check span invariants (every end matches
           the innermost open begin on its track, durations are
           non-negative, everything is closed) plus the embedded metrics
           snapshot when present. *)
        let events =
          try chrome_events doc with Trace_error e -> fail "%s" e
        in
        let spans = ref 0 in
        let tracks : (int, unit) Hashtbl.t = Hashtbl.create 8 in
        List.iter (fun (_, _, _, tid) -> Hashtbl.replace tracks tid ()) events;
        let stacks =
          try
            fold_spans
              ~on_span:(fun name tid dur ->
                if dur < 0.0 then
                  fail "span %s on track %d: negative duration %g" name tid dur;
                incr spans)
              events
          with Trace_error e -> fail "%s" e
        in
        Hashtbl.iter
          (fun tid s ->
            if !s <> [] then
              fail "track %d: %d unclosed span(s), innermost %S" tid
                (List.length !s)
                (fst (List.hd !s)))
          stacks;
        (match Json.member "metrics" doc with
        | Some mx -> check_metrics mx
        | None -> ());
        Printf.printf "ok: trace with %d event(s), %d span(s), %d track(s)\n"
          (List.length events) !spans (Hashtbl.length tracks)
    | Ok doc
      when Json.member "schema_version" doc <> None
           && Json.member "stages" doc <> None ->
        (* A bare manifest (bench/main.exe's BENCH_repro.json, or
           manifest.json from repro --out). *)
        let stages = check_manifest doc in
        Printf.printf "ok: manifest with %d stage(s)\n" stages
    | Ok doc ->
        let reports =
          match Json.member "reports" doc with
          | Some (Json.List l) -> l
          | Some _ -> fail "reports: expected a list"
          | None -> (
              (* Also accept a single report document. *)
              match Result.of_json doc with
              | Ok _ -> [ doc ]
              | Error _ -> fail "document has neither a reports list nor a report shape")
        in
        List.iteri
          (fun i r ->
            match Result.of_json r with
            | Ok _ -> ()
            | Error e -> fail "report %d: %s" i e)
          reports;
        let stage_count =
          match Json.member "manifest" doc with
          | Some m -> Some (check_manifest m)
          | None -> None
        in
        (match stage_count with
        | Some stages ->
            Printf.printf "ok: %d report(s), manifest with %d stage(s)\n"
              (List.length reports) stages
        | None -> Printf.printf "ok: %d report(s), no manifest\n" (List.length reports))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Validate a repro JSON document (reports parse, manifest invariants \
          hold), a bare run manifest, or a --trace file (spans balanced, \
          durations non-negative, metrics consistent)")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "icache-opt" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Optimizing Instruction Cache Performance for \
         Operating System Intensive Workloads' (Torrellas, Xia, Daigle - HPCA \
         1995)"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; repro_cmd; simulate_cmd; characterize_cmd; layout_cmd; dot_cmd;
         profile_cmd; sweep_cmd; trace_cmd; trace_summary_cmd; validate_cmd ]))
