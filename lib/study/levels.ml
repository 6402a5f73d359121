type level = Base | CH | OptS | OptL | OptA

let all = [| Base; CH; OptS; OptL; OptA |]

let to_string = function
  | Base -> "Base"
  | CH -> "C-H"
  | OptS -> "OptS"
  | OptL -> "OptL"
  | OptA -> "OptA"

let of_string s =
  match String.lowercase_ascii s with
  | "base" -> Ok Base
  | "ch" | "c-h" -> Ok CH
  | "opts" -> Ok OptS
  | "optl" -> Ok OptL
  | "opta" -> Ok OptA
  | other ->
      Error
        (Printf.sprintf "unknown layout level %S (expected base, ch, opts, optl or opta)"
           other)

(* Layout construction is deterministic in (context, level, params) and
   several experiments rebuild the same five levels, so memoize.  Layouts
   are immutable once built (variants go through with_os_map, which
   copies), so sharing one array across experiments is safe. *)
let memo : (string, Program_layout.t array) Hashtbl.t = Hashtbl.create 16
let memo_lock = Mutex.create ()

let build_uncached (ctx : Context.t) ?jobs ~params level =
  let model = ctx.Context.model in
  let os_profile = ctx.Context.avg_os_profile in
  (* Every workload of a level shares one OS placement, built from the
     averaged profile: compute it once, then fan out only the
     per-workload application placements. *)
  let opt extract_loops =
    let r =
      Opt.os_layout ~model ~profile:os_profile ~loops:(Program_layout.os_loops model)
        { params with Opt.extract_loops }
    in
    (r.Opt.map, Some r)
  in
  let os_map, os_meta =
    match level with
    | Base -> (Program_layout.base_os model, None)
    | CH -> (Program_layout.chang_hwu_os ~model ~os_profile, None)
    | OptS | OptA -> opt false
    | OptL -> opt true
  in
  let build _ ((w : Workload.t), program) =
    Trace_log.with_span "build_pair"
      ~args:
        [
          ("level", Json.String (to_string level));
          ("workload", Json.String w.Workload.name);
          ("domain", Json.Int (Domain.self () :> int));
        ]
    @@ fun () ->
    let app_maps =
      match level with
      | Base | CH | OptS | OptL -> Program_layout.base_apps program
      | OptA ->
          let app_profiles = Array.map ctx.Context.avg_app_profile program.Program.apps in
          Program_layout.opt_apps ~program ~app_profiles params
    in
    Program_layout.make ~name:(to_string level) ~os_map ~os_meta app_maps
  in
  Parallel.map_array ?jobs build ctx.Context.pairs

let build ctx ?(params = Opt.params ()) level =
  (* Base and C-H never consume [params] (see [build_uncached]), so their
     memo key must not include it: a cache-size sweep would otherwise
     rebuild the identical placement once per geometry. *)
  let params_part =
    match level with
    | Base | CH -> "-"
    | OptS | OptL | OptA ->
        Digest.to_hex (Digest.string (Marshal.to_string (params : Opt.params) []))
  in
  let key = Context.key ctx ^ "|" ^ to_string level ^ "|" ^ params_part in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some layouts -> layouts
  | None ->
      let layouts =
        Trace_log.with_span "levels_build"
          ~args:[ ("level", Json.String (to_string level)) ]
          (fun () -> build_uncached ctx ~params level)
      in
      Mutex.protect memo_lock (fun () ->
          if not (Hashtbl.mem memo key) then Hashtbl.add memo key layouts);
      layouts

let with_os_map (ctx : Context.t) ~name os_map =
  Array.map
    (fun ((_ : Workload.t), program) ->
      Program_layout.make ~name ~os_map ~os_meta:None (Program_layout.base_apps program))
    ctx.Context.pairs
