(** Multiprocessor tracing.

    The paper's testbed is a 4-CPU Alliant FX/8 with one instruction cache
    per processor; every reported number is the average of the four
    processors.  [run] is the N-CPU scheduler over {!Engine}'s per-CPU
    core, the same core {!Engine.run} schedules on one processor: each CPU
    gets its own core (walkers and PRNG streams over the shared kernel
    image) and the workload's application instances dealt round-robin
    across CPUs.  The CPU that has traced the fewest words runs next; it
    either serves a queued cross-processor interrupt or runs one OS
    invocation from the workload mix followed by an application burst.
    With probability [xcall_prob] such an invocation broadcasts a forced
    interrupt-class invocation (the cross-processor handler) to every
    other CPU, the mechanism behind TRFD_4's interrupt-dominated mix.
    There are no forced context switches: each CPU advances to its next
    instance after every burst. *)

type cpu = {
  trace : Trace.t;
  stats : Engine.stats;  (** [context_switches] is always 0. *)
  forced : int;  (** Cross-processor interrupts served. *)
}

type result = { cpus : cpu array; xcalls_sent : int }

val run :
  program:Program.t -> workload:Workload.t -> cpus:int -> words_per_cpu:int ->
  seed:int -> ?xcall_prob:float -> unit -> result
(** Trace until every CPU has at least [words_per_cpu] words.
    Deterministic in [seed].  @raise Invalid_argument if [cpus < 1]. *)
