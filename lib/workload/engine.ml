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
    on_exec = (fun ~image ~block -> Trace.append_exec trace ~image ~block);
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
  handler_totals : float array;  (** Per class: sum of its handler weights. *)
  seeds : Model.seed_info array;
  words_of : int array array;  (** Per image, per block. *)
  dispatch_block : Block.id array;  (** Per class. *)
  handler_arcs : Arc.id array array;  (** Per class, per handler. *)
  override : Arc.id array;
      (** The OS walker's per-block override: at each class's dispatch
          block, the arc of the handler its last invocation chose
          (handler 0 before the first); -1 everywhere else. *)
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
  (* Dispatch handling: per class, its dispatch block and the arc that
     selects each handler.  The override array assumes one class per
     dispatch block. *)
  let dispatch_block = Array.map (fun (d : Model.dispatch) -> d.block) os.Model.dispatches in
  let handler_arcs =
    Array.map
      (fun (d : Model.dispatch) ->
        let arr = Array.make (Array.length d.arcs) (-1) in
        Array.iter (fun (a, hi) -> arr.(hi) <- a) d.arcs;
        arr)
      os.Model.dispatches
  in
  let override = Array.make (Graph.block_count os.Model.graph) (-1) in
  Array.iteri
    (fun ci b ->
      if override.(b) <> -1 then
        invalid_arg "Engine.create_cpu: two service classes share a dispatch block";
      if Array.length handler_arcs.(ci) > 0 then override.(b) <- handler_arcs.(ci).(0))
    dispatch_block;
  let os_walker =
    Walker.create ~graph:os.Model.graph ~arc_prob:os.Model.arc_prob ~prng:g_os ~override
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
    handler_totals = Array.map Stats.sum workload.Workload.handler_weights;
    seeds = os.Model.seeds;
    words_of;
    dispatch_block;
    handler_arcs;
    override;
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
  if cpu.handler_totals.(ci) <= 0.0 then 0
  else Prng.choose_index cpu.g_class cpu.workload.Workload.handler_weights.(ci)

let choose_class cpu = Prng.choose_index cpu.g_class cpu.workload.Workload.mix

let invoke cpu ci ~handler =
  let sink = cpu.sink and words_of = cpu.words_of.(Program.os_image) in
  let w = cpu.os_walker in
  cpu.override.(cpu.dispatch_block.(ci)) <- cpu.handler_arcs.(ci).(handler);
  cpu.invocations.(ci) <- cpu.invocations.(ci) + 1;
  sink.on_invocation_start (Service.of_index ci);
  Walker.start w cpu.seeds.(ci).Model.entry;
  let b = ref (Walker.step w) in
  while !b >= 0 do
    sink.on_exec ~image:Program.os_image ~block:!b;
    cpu.os_words <- cpu.os_words + words_of.(!b);
    b := Walker.step w
  done;
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
         let b = Walker.step w in
         if b >= 0 then begin
           cpu.sink.on_exec ~image ~block:b;
           let n = words_of.(b) in
           emitted := !emitted + n;
           cpu.app_words <- cpu.app_words + n
         end
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
  (* The previous invocation's class and handler; -1 before the first. *)
  let prev_class = ref (-1) and prev_handler = ref 0 in
  while words cpu < target do
    incr inv_total;
    let switching =
      period > 0 && !inv_total mod period = 0 && Array.length instances > 1
    in
    if switching then begin
      (* A forced context switch runs the switch handler itself: class
         Other, handler 0 (state save/restore, TLB invalidation). *)
      prev_class := Service.index Service.Other;
      prev_handler := 0
    end
    else if
      not (!prev_class >= 0 && Prng.bernoulli g_class workload.Workload.repeat_prob)
    then begin
      let ci = choose_class cpu in
      prev_class := ci;
      prev_handler := sample_handler cpu ci
    end;
    invoke cpu !prev_class ~handler:!prev_handler;
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
