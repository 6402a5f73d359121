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
  let build ((w : Workload.t), program) =
    Trace_log.with_span "build_pair"
      ~args:
        [
          ("level", Json.String (to_string level));
          ("workload", Json.String w.Workload.name);
          ("domain", Json.Int (Domain.self () :> int));
        ]
    @@ fun () ->
    match level with
    | Base -> Program_layout.base ~model ~program
    | CH -> Program_layout.chang_hwu ~model ~program ~os_profile
    | OptS -> Program_layout.opt_s ~model ~program ~os_profile ~params ()
    | OptL -> Program_layout.opt_l ~model ~program ~os_profile ~params ()
    | OptA ->
        let app_profiles =
          Array.map ctx.Context.avg_app_profile program.Program.apps
        in
        Program_layout.opt_a ~model ~program ~os_profile ~app_profiles ~params ()
  in
  let pairs = ctx.Context.pairs in
  if Array.length pairs <= 1 then Array.map build pairs
  else begin
    (* Warm the shared OS-side stage caches on the first pair before
       fanning out: every workload of a level shares the same OS
       placement, so without the warm-up each domain would race to
       rebuild it (correct — first store wins — but wasted work).  The
       fan-out then parallelizes only the genuinely per-workload part
       (application placements). *)
    let first = build pairs.(0) in
    let rest =
      Parallel.map_array ?jobs
        (fun _ pair -> build pair)
        (Array.sub pairs 1 (Array.length pairs - 1))
    in
    Array.append [| first |] rest
  end

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

let build_opt_s_with ctx ~params = build ctx ~params OptS

let code_maps layouts = Array.map Program_layout.code_map layouts
