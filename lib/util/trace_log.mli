(** Structured span tracing for the reproduction pipeline.

    A process-global, domain-safe recorder of {e where} a run's wall-clock
    time went, at span granularity: {!with_span} brackets a region of code
    with begin/end events carrying a name, optional arguments, a timestamp
    and the recording domain's track.  Events land in per-domain buffers
    (one unsynchronized buffer per domain, created lazily through domain-
    local storage and registered once under a mutex), so recording a span
    never takes a lock — the only synchronized operation per event is one
    atomic fetch-and-add for the global sequence number that orders the
    merged stream.

    Every span is timed, traced or not: its duration goes into the
    {!Metrics_registry} histogram [span.<name>], whose exact count and sum
    are the run manifest's stage rows.  The event timeline is {e off} by
    default ({!set_enabled}); when it is on, a span's begin and end events
    carry the same two clock readings as its histogram observation.
    Simulation results are unaffected either way because spans only
    observe.  Buffers are merged at export time ({!events}, {!to_chrome},
    {!to_folded}), which must happen after all worker domains have been
    joined — {!Parallel.map_array} joins before returning, so any point
    between pipeline stages qualifies.

    Tracks: the main domain records on track 0; {!Parallel.map_array}
    labels each worker domain with its slot index + 1 via {!set_track}, so
    a run under [ICACHE_JOBS=4] shows tracks 0-4 and successive fork-join
    phases reuse the same tracks instead of spraying one per spawned
    domain.

    Exports: {!to_chrome} emits the Chrome trace-event JSON format
    (["traceEvents"] with [ph:"B"/"E"] pairs, microsecond timestamps,
    one [tid] per track) loadable in Perfetto or [chrome://tracing];
    {!to_folded} emits folded flamegraph text ([stack;frames count]). *)

type event = {
  seq : int;  (** global order; within a track this is program order *)
  name : string;
  begin_ : bool;  (** [true] for a span begin, [false] for its end *)
  ts : float;  (** microseconds since process start *)
  track : int;  (** 0 = main domain, 1.. = parallel worker slots *)
  args : (string * Json.t) list;  (** begin events only; ends carry [] *)
}

val set_enabled : bool -> unit
(** Turn event recording on or off (off at start-up).  Disabling does not
    clear already-recorded events; span histograms record regardless. *)

val with_span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span ?args name f] runs [f ()] and observes its wall-clock
    duration into the [span.<name>] histogram.  When recording is enabled
    it also brackets [f] with a begin/end event pair on the calling
    domain's track.  The duration and the end event are recorded even
    when [f] raises. *)

val set_track : int -> unit
(** Label the calling domain's events with this track id (domain-local;
    worker domains are labelled by {!Parallel.map_array}, everything else
    records on track 0). *)

val events : unit -> event list
(** All recorded events merged across domains, in [seq] order.  Call only
    while no other domain is recording (i.e. between fork-join phases). *)

val span_count : unit -> int
(** Number of {e completed} spans recorded so far (begin/end pairs). *)

val to_chrome : ?extra:(string * Json.t) list -> unit -> Json.t
(** The Chrome trace-event document: [{"traceEvents": [...],
    "displayTimeUnit": "ms", ...extra}].  [extra] fields (for example a
    {!Metrics_registry} snapshot) are appended to the top-level object;
    Chrome and Perfetto ignore keys they do not know. *)

val to_folded : unit -> string
(** Folded flamegraph text: one ["frame;frame;... microseconds"] line per
    distinct stack, aggregated over all tracks and sorted by stack name.
    Feed to [flamegraph.pl] or speedscope. *)

val reset : unit -> unit
(** Drop all recorded events (the enabled flag and the span histograms
    are left as-is).  Call only between fork-join phases, like
    {!events}. *)
