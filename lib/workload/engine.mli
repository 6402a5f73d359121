(** The trace engine: interleaves application execution with OS
    invocations, reproducing the reference streams the paper's hardware
    monitor captured.

    The engine is one per-CPU core and two schedulers over it.  A {!cpu}
    owns one processor's walkers and dispatch state: {!choose_class} picks
    a service class from the workload mix, {!sample_handler} the handler
    its seed dispatches to, {!invoke} walks the kernel graph from the class's seed
    to completion, and {!app_burst} runs the current application instance
    for as long as the OS-share rule allows (burst lengths self-regulate so
    the OS share of fetched words converges to [workload.os_fraction]).

    {!run} is the uniprocessor scheduler: invocations repeat the previous
    (class, handler) pair with probability [workload.repeat_prob], and
    every [switch_period] invocations a context switch (class [Other],
    handler 0) is forced and the next runnable instance is scheduled
    round-robin.  {!Multiproc.run} is the N-CPU scheduler over the same
    core. *)

type stats = {
  total_words : int;  (** Instruction words fetched. *)
  os_words : int;
  app_words : int;
  invocations : int array;  (** Per service class. *)
  context_switches : int;
}

type sink = {
  on_exec : image:int -> block:Block.id -> unit;
  on_arc : image:int -> arc:Arc.id -> unit;
      (** Intra-routine arcs taken (profiling; not recorded in traces). *)
  on_invocation_start : Service.t -> unit;
  on_invocation_end : unit -> unit;
}

val null_sink : sink

val trace_sink : Trace.t -> sink
(** Records every event into the trace buffer (executions through
    {!Trace.append_exec}, so an exec allocates nothing). *)

(** {1 The per-CPU core} *)

type cpu

val create_cpu :
  program:Program.t -> workload:Workload.t -> instances:int array ->
  g_class:Prng.t -> g_os:Prng.t -> g_app:Prng.t -> sink:sink -> cpu
(** A processor running the application [instances] (image indices).
    [g_class] drives class and handler choice and stays shared with the
    scheduler, which draws its own decisions from it; [g_os] drives the
    kernel walk; each instance's walker gets a stream split from [g_app],
    in instance order.  Every event goes to [sink].  Dispatch goes
    through a per-block override array of the kernel walker, which
    assumes one class per dispatch block.
    @raise Invalid_argument if two classes share a dispatch block. *)

val choose_class : cpu -> int
(** A service class index drawn from the workload mix.
    @raise Invalid_argument if the mix does not sum to a positive value. *)

val sample_handler : cpu -> int -> int
(** A handler index of the class, drawn from its handler weights (0 when
    they are all zero).  {!choose_class} then [sample_handler] is the
    schedulers' draw order. *)

val invoke : cpu -> int -> handler:int -> unit
(** One OS invocation of the class, its seed dispatching to [handler]:
    the class's dispatch block takes that handler's arc from now until
    the class is next invoked. *)

val app_burst : cpu -> int -> bool
(** [app_burst cpu slot] runs instance [slot mod n] until the OS share of
    the CPU's words is back at the workload target, capped so a long burst
    never starves OS activity.  Returns whether a burst ran (false on a
    CPU without instances, at an OS share of 1, or when the application is
    already ahead). *)

val words : cpu -> int
(** Instruction words emitted so far. *)

val stats : cpu -> context_switches:int -> stats

(** {1 Uniprocessor} *)

val run :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  sink:sink -> stats
(** Generate at least [words] instruction words of trace.  Deterministic in
    [seed] (and the program/workload contents). *)

val capture :
  program:Program.t -> workload:Workload.t -> words:int -> seed:int ->
  Trace.t * stats
(** {!run} into a fresh trace buffer. *)
