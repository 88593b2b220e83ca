(** Compact binary program encoding.

    This is the analogue of HEALER's ivshmem wire format: the fuzzer
    serializes each test case into a compact byte string that the
    in-guest executor decodes. Integers use LEB128 varints (zigzag for
    signed payloads); the encoding is self-delimiting. *)

exception Malformed of string

val encode : Prog.t -> string

val decode : Healer_syzlang.Target.t -> string -> Prog.t
(** Raises {!Malformed} on truncated or corrupt input, when a
    syscall id does not exist in [target], or when values nest more
    than 32 deep (pointers and groups). When
    {!Healer_kernel.Validate.enabled} is set, additionally raises
    {!Malformed} if the decoded program has {!Progcheck} errors:
    well-formed bytes encoding a type-invalid program are still
    malformed input. *)

val put_uvarint : Buffer.t -> int64 -> unit
(** Exposed for tests. *)

val get_uvarint : string -> int ref -> int64
(** Exposed for tests. Raises {!Malformed}. *)
