type stats = {
  total_words : int;
  os_words : int;
  app_words : int;
  invocations : int array;
  context_switches : int;
}

type sink = {
  on_exec : image:int -> block:Block.id -> unit;
  on_arc : image:int -> arc:Arc.id -> unit;
  on_invocation_start : Service.t -> unit;
  on_invocation_end : unit -> unit;
}

let null_sink =
  {
    on_exec = (fun ~image:_ ~block:_ -> ());
    on_arc = (fun ~image:_ ~arc:_ -> ());
    on_invocation_start = ignore;
    on_invocation_end = ignore;
  }

let trace_sink trace =
  {
    on_exec = (fun ~image ~block -> Trace.append trace (Trace.Exec { image; block }));
    on_arc = (fun ~image:_ ~arc:_ -> ());
    on_invocation_start = (fun c -> Trace.append trace (Trace.Invocation_start c));
    on_invocation_end = (fun () -> Trace.append trace Trace.Invocation_end);
  }

(* Longest application burst between two OS invocations, in words.  Keeps
   the self-regulating ratio controller from starving OS activity. *)
let max_burst = 30_000

type cpu = {
  workload : Workload.t;
  sink : sink;
  g_class : Prng.t;
  class_choices : (int * float) array;
  seeds : Model.seed_info array;
  words_of : int array array;  (** Per image, per block. *)
  current_handler : int array;  (** Per class: handler its dispatch takes. *)
  os_walker : Walker.t;
  instances : int array;
  app_walkers : Walker.t array;
  app_mains : Block.id array;
  invocations : int array;
  mutable os_words : int;
  mutable app_words : int;
}

let create_cpu ~program ~workload ~instances ~g_class ~g_os ~g_app ~sink =
  let os = program.Program.os in
  let words_of =
    Array.init (Program.image_count program) (fun i ->
        let g = Program.graph program i in
        Array.init (Graph.block_count g) (fun b ->
            Block.instruction_words (Graph.block g b)))
  in
  (* Dispatch handling: block id -> class index, and per class the arc for
     each handler; the walker takes the arc of the class's current
     handler. *)
  let dispatch_class = Hashtbl.create 8 in
  let arcs_by_handler =
    Array.map
      (fun (d : Model.dispatch) ->
        let arr = Array.make (Array.length d.arcs) (-1) in
        Array.iter (fun (a, hi) -> arr.(hi) <- a) d.arcs;
        arr)
      os.Model.dispatches
  in
  Array.iteri
    (fun ci (d : Model.dispatch) -> Hashtbl.add dispatch_class d.block ci)
    os.Model.dispatches;
  let current_handler = Array.make Service.count 0 in
  let os_choose b _arcs =
    match Hashtbl.find_opt dispatch_class b with
    | None -> None
    | Some ci -> Some arcs_by_handler.(ci).(current_handler.(ci))
  in
  let os_walker =
    Walker.create ~graph:os.Model.graph ~arc_prob:os.Model.arc_prob ~prng:g_os
      ~choose:os_choose
      ~on_arc:(fun arc -> sink.on_arc ~image:Program.os_image ~arc)
      ()
  in
  (* Application instances: persistent walkers over their image graphs. *)
  let app_walkers =
    Array.map
      (fun image ->
        Walker.create ~graph:(Program.graph program image)
          ~arc_prob:(Program.arc_prob program image)
          ~prng:(Prng.split g_app)
          ~on_arc:(fun arc -> sink.on_arc ~image ~arc)
          ())
      instances
  in
  let app_mains =
    Array.map
      (fun image ->
        Graph.entry_of
          (Program.graph program image)
          program.Program.apps.(image - 1).App_model.main)
      instances
  in
  {
    workload;
    sink;
    g_class;
    class_choices = Array.mapi (fun i p -> (i, p)) workload.Workload.mix;
    seeds = os.Model.seeds;
    words_of;
    current_handler;
    os_walker;
    instances;
    app_walkers;
    app_mains;
    invocations = Array.make Service.count 0;
    os_words = 0;
    app_words = 0;
  }

let words cpu = cpu.os_words + cpu.app_words

let sample_handler cpu ci =
  let w = cpu.workload.Workload.handler_weights.(ci) in
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then 0
  else begin
    let u = Prng.unit_float cpu.g_class *. total in
    let rec scan i acc =
      if i >= Array.length w - 1 then i
      else
        let acc = acc +. w.(i) in
        if u < acc then i else scan (i + 1) acc
    in
    scan 0 0.0
  end

let choose_class cpu =
  let ci = Prng.choose_weighted cpu.g_class cpu.class_choices in
  (ci, sample_handler cpu ci)

let invoke cpu ci ~handler =
  let sink = cpu.sink and words_of = cpu.words_of.(Program.os_image) in
  cpu.current_handler.(ci) <- handler;
  cpu.invocations.(ci) <- cpu.invocations.(ci) + 1;
  sink.on_invocation_start (Service.of_index ci);
  Walker.start cpu.os_walker cpu.seeds.(ci).Model.entry;
  let rec go () =
    match Walker.step cpu.os_walker with
    | None -> ()
    | Some b ->
        sink.on_exec ~image:Program.os_image ~block:b;
        cpu.os_words <- cpu.os_words + words_of.(b);
        go ()
  in
  go ();
  sink.on_invocation_end ()

let app_burst cpu slot =
  let n = Array.length cpu.instances in
  let f = cpu.workload.Workload.os_fraction in
  let budget =
    if n = 0 || f >= 1.0 then 0
    else
      let desired = int_of_float (float_of_int cpu.os_words *. (1.0 -. f) /. f) in
      min max_burst (desired - cpu.app_words)
  in
  budget > 0
  && begin
       let k = slot mod n in
       let w = cpu.app_walkers.(k) and image = cpu.instances.(k) in
       let words_of = cpu.words_of.(image) in
       let emitted = ref 0 in
       while !emitted < budget do
         if not (Walker.active w) then Walker.start w cpu.app_mains.(k);
         match Walker.step w with
         | None -> ()
         | Some b ->
             cpu.sink.on_exec ~image ~block:b;
             let n = words_of.(b) in
             emitted := !emitted + n;
             cpu.app_words <- cpu.app_words + n
       done;
       true
     end

let stats cpu ~context_switches =
  {
    total_words = words cpu;
    os_words = cpu.os_words;
    app_words = cpu.app_words;
    invocations = cpu.invocations;
    context_switches;
  }

let run ~program ~workload ~words:target ~seed ~sink =
  let g_class = Prng.of_int (seed * 3 + 1) in
  let g_os = Prng.of_int (seed * 3 + 2) in
  let g_app = Prng.of_int (seed * 3 + 3) in
  let instances = workload.Workload.app_instances in
  let cpu = create_cpu ~program ~workload ~instances ~g_class ~g_os ~g_app ~sink in
  let period = workload.Workload.switch_period in
  let switches = ref 0 in
  let inv_total = ref 0 in
  let current = ref 0 in
  let prev = ref None in
  while words cpu < target do
    incr inv_total;
    let switching =
      period > 0 && !inv_total mod period = 0 && Array.length instances > 1
    in
    let ci, handler =
      if switching then
        (* A forced context switch runs the switch handler itself: class
           Other, handler 0 (state save/restore, TLB invalidation). *)
        (Service.index Service.Other, 0)
      else
        match !prev with
        | Some (pc, ph) when Prng.bernoulli g_class workload.Workload.repeat_prob ->
            (pc, ph)
        | Some _ | None -> choose_class cpu
    in
    prev := Some (ci, handler);
    invoke cpu ci ~handler;
    if switching then begin
      incr switches;
      incr current
    end;
    ignore (app_burst cpu !current)
  done;
  stats cpu ~context_switches:!switches

let capture ~program ~workload ~words ~seed =
  let trace = Trace.create ~capacity:(words / 4) () in
  let stats = run ~program ~workload ~words ~seed ~sink:(trace_sink trace) in
  (trace, stats)
