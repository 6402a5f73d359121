(** Content-addressed caches for the staged layout pipeline.

    {!Opt.layout} decomposes into stages with strictly smaller input sets
    than the whole layout:

    - {e sequences} depend only on (graph, profile, schedule, seeds,
      follow_calls) — not on cache geometry, so an entire cache-size or
      SelfConfFree sweep shares one sequence construction;
    - {e scf} selection depends only on (graph, profile, loops, cutoff);
    - {e loop_mark} (the {!Loopstat.analyze} pass behind OptL's loop
      extraction) depends only on (graph, profile, loops);
    - {e place} — the final cursor placement — is the only stage that
      consumes the full parameter record.

    {!Program_layout} registers two more stages on the same registry:
    {e base} (the Base OS placement, keyed on graph and block order) and
    {e chang_hwu} (the C-H placement, keyed on graph and profile) — both
    used to be rebuilt per workload despite identical inputs.

    Each stage memoizes in a process-global, mutex-guarded table keyed on
    a digest of exactly the inputs that stage consumes.  Like
    {!Sim_cache}, racing builders may construct the same value twice; the
    first store wins and both callers observe the stored value, so
    results are independent of domain scheduling.

    A stage's counts live only in {!Metrics_registry}: the counters
    [layout_cache.<stage>.hits], [.misses] and [.lookups] and the
    histogram [layout_cache.<stage>.build_seconds].  They are
    whole-process totals, surfaced in the run manifest's [layout]
    object; {!clear} drops cached values but never rewinds them.

    The module also owns natural-loop detection for {e both} OS and
    application graphs ({!loops}), replacing the unsynchronized global
    that {!Program_layout} used to mutate from parallel builds. *)

val graph_digest : Graph.t -> string
(** Content digest of a frozen flow graph, memoized on physical identity
    (graphs are immutable after {!Graph.freeze}). *)

val profile_digest : Profile.t -> string
(** Content digest of a profile.  Recomputed on every call — profiles are
    mutable ({!Profile.accumulate}), so physical memoization would be
    unsound. *)

val loops : Graph.t -> Loops.t list
(** [Loops.find g], memoized per graph (physical identity) behind a lock:
    repeated calls return the {e same} list, including across domains. *)

val loops_digest : Graph.t -> Loops.t list -> string
(** Content digest of a loop set.  When [loops] is the canonical
    {!loops}[ g] list the digest is memoized; hand-built loop sets are
    digested on every call. *)

type stats = { hits : int; misses : int; seconds : float }
(** [seconds] is time spent building values on misses (cache management
    overhead is not counted).  On a cold build, an outer stage's seconds
    include the inner stages it triggered (stage timings nest, exactly
    like the manifest's [levels_build] envelope). *)

module type STAGE = sig
  type value

  val name : string
end

module Stage (S : STAGE) : sig
  val find_or_build : key:string -> (unit -> S.value) -> S.value
end
(** A named memo table with its registry counters.  Instantiate once per
    stage (at module initialization, not per call). *)

val set_enabled : bool -> unit
(** Test hook: [set_enabled false] turns every stage into a pass-through
    (no lookups, no stores, no counter updates), so a "monolithic"
    reference build can be produced for comparison.  Default: enabled. *)

val enabled : unit -> bool

val stage_stats : unit -> (string * stats) list
(** Per-stage registry counters in stage registration order. *)

val totals : unit -> stats
(** Sum of {!stage_stats}. *)

val clear : unit -> unit
(** Drop every cached value (including memoized loops and digests); the
    counters keep counting. *)
