(* The N-CPU scheduler over Engine's per-CPU core: CPUs interleave by
   words traced and couple through cross-processor interrupts. *)

type cpu = { trace : Trace.t; stats : Engine.stats; forced : int }

type result = { cpus : cpu array; xcalls_sent : int }

(* One processor's scheduler state around its engine core. *)
type proc = {
  core : Engine.cpu;
  trace : Trace.t;
  g_class : Prng.t;
  mutable pending : int;  (** Cross-processor interrupts queued. *)
  mutable forced : int;  (** Cross-processor interrupts served. *)
  mutable bursts : int;  (** Application bursts run: the round-robin slot. *)
}

let run ~program ~workload ~cpus:n ~words_per_cpu ~seed ?(xcall_prob = 0.0) () =
  if n < 1 then invalid_arg "Multiproc.run: need at least one CPU";
  let master = Prng.of_int seed in
  let interrupt = Service.index Service.Interrupt in
  (* The cross-processor interrupt handler, index 1 when present. *)
  let xcall_handler =
    min 1 (Array.length program.Program.os.Model.handlers.(interrupt) - 1)
  in
  let instances = Array.to_list workload.Workload.app_instances in
  let procs =
    Array.init n (fun i ->
        let g_class = Prng.split master in
        let g_os = Prng.split master in
        let g_app = Prng.split master in
        (* This CPU owns the app instances congruent to its index. *)
        let instances =
          Array.of_list (List.filteri (fun k _ -> k mod n = i) instances)
        in
        let trace = Trace.create ~capacity:(words_per_cpu / 4) () in
        let core =
          Engine.create_cpu ~program ~workload ~instances ~g_class ~g_os ~g_app
            ~sink:(Engine.trace_sink trace)
        in
        { core; trace; g_class; pending = 0; forced = 0; bursts = 0 })
  in
  let xcalls_sent = ref 0 in
  let step i p =
    if p.pending > 0 then begin
      (* Serve forced cross-processor interrupts first. *)
      p.pending <- p.pending - 1;
      p.forced <- p.forced + 1;
      Engine.invoke p.core interrupt ~handler:xcall_handler
    end
    else begin
      let ci = Engine.choose_class p.core in
      Engine.invoke p.core ci ~handler:(Engine.sample_handler p.core ci);
      if Engine.app_burst p.core p.bursts then p.bursts <- p.bursts + 1;
      if Prng.bernoulli p.g_class xcall_prob then begin
        (* Broadcast a cross-processor interrupt to every other CPU. *)
        Array.iteri (fun j q -> if j <> i then q.pending <- q.pending + 1) procs;
        incr xcalls_sent
      end
    end
  in
  (* Advance the CPU that is furthest behind (time-interleaving) until
     every CPU has its words. *)
  let rec loop () =
    let next = ref 0 in
    for i = 1 to n - 1 do
      if Engine.words procs.(i).core < Engine.words procs.(!next).core then next := i
    done;
    let p = procs.(!next) in
    if Engine.words p.core < words_per_cpu then begin
      step !next p;
      loop ()
    end
  in
  loop ();
  {
    cpus =
      Array.map
        (fun p ->
          {
            trace = p.trace;
            stats = Engine.stats p.core ~context_switches:0;
            forced = p.forced;
          })
        procs;
    xcalls_sent = !xcalls_sent;
  }
