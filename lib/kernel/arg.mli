(** Runtime argument values as seen by a syscall handler.

    The executor resolves a program's symbolic values (resource
    references, pointers) into this flat representation before entering
    the kernel: integers/resources become [Int] (ids), pointer payloads
    are dereferenced into [Rec] groups, null pointers become [Nothing]. *)

type t =
  | Int of int64
  | Str of string
  | Buf of bytes
  | Rec of t list  (** Dereferenced pointer payload (struct/array). *)
  | Nothing  (** Null pointer / absent argument. *)

val as_int : t -> int64
(** [Int v -> v]; anything else is 0 (like reading a bad register). *)

val as_fd : t -> int
(** [as_int] truncated to [int]. *)

val as_buf : t -> bytes
(** [Buf b -> b], [Str s -> bytes of s]; otherwise empty. *)

val as_str : t -> string
val as_rec : t -> t list
(** [Rec fs -> fs]; otherwise []. *)

val is_null : t -> bool
val nth : t list -> int -> t
(** [nth args i] is [Nothing] when out of range. *)

val field : t -> int -> t
(** [field arg i] is the [i]-th member of a [Rec], else [Nothing]. *)

val pp : Format.formatter -> t -> unit
