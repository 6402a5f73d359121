(** Binary serialization of traces (magic + count + one 32-bit word per
    packed event): capture once, replay against many layouts and cache
    geometries in later sessions, as the paper did with its archived
    hardware traces. *)

val magic : string

val save : string -> Trace.t -> unit
(** @raise Invalid_argument if an event does not fit 32 bits. *)

val load : string -> Trace.t
(** @raise Invalid_argument on a malformed file: bad magic, a header
    shorter than 16 bytes, or a file size other than [16 + 4 * n] for
    the header's event count [n] (checked before anything is
    allocated). *)
