(** Instruction-cache geometry. *)

type policy =
  | Lru  (** Least-recently-used (the paper's assumption). *)
  | Fifo  (** Replace in insertion order; hits do not refresh. *)
  | Random of int
      (** Replace a uniformly random way; the int seeds the generator so
          simulations stay deterministic. *)

type t = {
  size : int;  (** Total bytes; power of two. *)
  assoc : int;  (** Ways; power of two, [1] = direct-mapped. *)
  line : int;  (** Line size in bytes; power of two. *)
  policy : policy;  (** Replacement policy (irrelevant when [assoc = 1]). *)
}

val make : size_kb:int -> ?assoc:int -> ?line:int -> ?policy:policy -> unit -> t
(** Defaults: direct-mapped, 32-byte lines, LRU (the paper's baseline).
    @raise Invalid_argument on non-power-of-two or inconsistent
    geometry. *)

val check : size:int -> assoc:int -> line:int -> (t, string) result
(** Raw constructor, LRU replacement: [Error] unless size, associativity
    and line are powers of two, a line holds at least one instruction
    word ({!Block.word_bytes}) and [line * assoc <= size]. *)

val v : size:int -> assoc:int -> line:int -> t
(** {!check}, raising [Invalid_argument] on an invalid geometry. *)

val with_policy : t -> policy -> t

val policy_to_string : policy -> string

val sets : t -> int

val line_of_addr : t -> int -> int
(** Line-granularity address ([addr / line]). *)

val set_of_line : t -> int -> int

val to_string : t -> string
(** E.g. ["8KB/1way/32B"]. *)
