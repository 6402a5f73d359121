(** Whole-program placements: one {!Address_map.t} for the OS image and one
    per application image, combinable into a {!Replay.code_map} for cache
    simulation.

    The evaluation's layout levels (Section 5):
    - [base]: original link order for OS and applications;
    - [chang_hwu]: C-H layout for the OS, applications unchanged;
    - [opt_s]: sequences + SelfConfFree area, no loop extraction;
    - [opt_l]: [opt_s] plus loop extraction;
    - OptA: [opt_s] for the OS plus optimized application layouts
      (sequences + loop extraction, placed from the opposite cache side),
      composed by {!make} from an OptS OS placement and {!opt_apps}. *)

type t = private {
  name : string;
  os_map : Address_map.t;
  app_maps : Address_map.t array;
  os_meta : Opt.result option;  (** Sequence/SCF/loop metadata when built
                                    by the Opt machinery. *)
  mutable digest_memo : string;
      (** {!digest} once computed, [""] before.  Private so every layout
          comes from a constructor here, none of which carries a stale
          digest over. *)
}

val app_region_base : int
(** Byte address where application image 1 begins (a multiple of every
    simulated cache size, so cache indexing of applications is unaffected
    by the offset). *)

val app_region_stride : int

val base : model:Model.t -> program:Program.t -> t

val chang_hwu : model:Model.t -> program:Program.t -> os_profile:Profile.t -> t

val opt_s :
  model:Model.t -> program:Program.t -> os_profile:Profile.t ->
  ?params:Opt.params -> unit -> t

val opt_l :
  model:Model.t -> program:Program.t -> os_profile:Profile.t ->
  ?params:Opt.params -> unit -> t

val make :
  name:string -> os_map:Address_map.t -> os_meta:Opt.result option ->
  Address_map.t array -> t
(** A layout from an OS placement and one map per application image, in
    image order.  Lets a caller build one OS placement and share it
    across the layouts of several workloads. *)

val base_os : Model.t -> Address_map.t
(** The Base OS placement: original link order, memoized per graph and
    order (the [base] stage of {!Layout_cache}). *)

val chang_hwu_os : model:Model.t -> os_profile:Profile.t -> Address_map.t
(** The C-H OS placement, memoized per graph and profile (the
    [chang_hwu] stage). *)

val base_apps : Program.t -> Address_map.t array
(** Original-order placements of the program's application images, one
    map per image shared by every workload and level that runs it. *)

val opt_apps :
  program:Program.t -> app_profiles:Profile.t array -> Opt.params ->
  Address_map.t array
(** OptA application placements ({!Opt.app_layout}, image [k+1] staggered
    by [k] quarter caches); [app_profiles.(k)] profiles image [k+1]. *)

val with_os_map : t -> name:string -> Address_map.t -> os_meta:Opt.result option -> t
(** Replace the OS placement (used by the Call/Resv variants). *)

val code_map : t -> Replay.code_map
(** Absolute addresses: OS at 0, application image [k] at
    [app_region_base + (k-1) * app_region_stride]. *)

val digest : t -> string
(** Content digest of the placement exactly as the simulator consumes it
    (the absolute {!code_map} addresses and block sizes, hex-encoded MD5).
    Two layouts with equal digests replay identically under every cache
    configuration, so the digest is a sound memoization key for simulation
    results regardless of how or when the layout was built.  Computed on
    first call and kept in the layout, so later calls are a field read;
    safe to call from several domains at once. *)

val os_loops : Model.t -> Loops.t list
(** Natural loops of the kernel graph ({!Layout_cache.loops} on the
    model's graph: memoized per graph, safe under parallel builds). *)
