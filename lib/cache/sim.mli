(** Set-associative LRU instruction-cache simulator with the paper's miss
    classification and optional per-block miss attribution (for the
    miss-address distributions of Figures 1 and 14). *)

type t

val create : Config.t -> t

val config : t -> Config.t
val counters : t -> Counters.t

val enable_block_attribution : t -> images:int -> blocks:int array -> unit
(** Allocate per-(image, block) miss counters; [blocks.(i)] is image [i]'s
    block count. *)

val block_misses : t -> image:int -> int array
(** Per-block miss counts (zeros if attribution was not enabled).
    @raise Invalid_argument if attribution was not enabled. *)

val block_misses_self : t -> image:int -> int array
(** Per-block self-interference miss counts. *)

val block_misses_cross : t -> image:int -> int array
(** Per-block cross-interference miss counts. *)

val access : t -> os:bool -> image:int -> block:int -> addr:int -> bytes:int -> unit
(** One basic-block execution: fetches the [bytes/4] instruction words
    starting at [addr], touching each spanned cache line once (further
    words on an already-touched line hit by construction). *)

val find_way : int array -> base:int -> ways:int -> int -> int
(** [find_way tags ~base ~ways line] is the index [i < ways] of the first
    slot with [tags.(base + i) = line], or -1.  The way search of every
    associative kernel (and of the victim buffer in {!System}); with
    [line = -1] it finds an invalid way.  Allocation-free. *)

val probe : t -> addr:int -> bool
(** Whether the line holding [addr] is currently resident (testing aid;
    does not update LRU or counters). *)

val reset_counters : t -> unit
(** Zero counters and attributions, keeping cache contents (warm-up). *)

val reset : t -> unit
(** Empty the cache and zero all counters and attributions. *)
