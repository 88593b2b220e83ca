(** Type-directed argument synthesis and mutation (paper Section 4.2,
    "parameter synthesis").

    Generation strategies follow the type: magic-number-biased integers,
    flag subsets, length fields computed from their sibling argument,
    resource arguments wired to a compatible earlier producer when one
    exists (falling back to a special value), literal pools for
    strings/filenames, recursive struct/union/array payloads.

    Mutation applies type-specific operators: bit flips and arithmetic
    deltas on integers, flag toggles, buffer resizing, producer
    re-wiring, payload regeneration. *)

type ctx = {
  target : Healer_syzlang.Target.t;
  producers : string -> int list;
      (** [producers kind] = indices of earlier calls whose result is a
          resource compatible with consumer kind [kind]. *)
}

val buf_sizes : int array
(** The lengths a generated [Buffer] argument is drawn from. *)

val gen_args :
  Healer_util.Rng.t -> ctx -> Healer_syzlang.Syscall.t -> Healer_executor.Value.t list
(** Fresh arguments for a call, length fields resolved. *)

val gen_value : Healer_util.Rng.t -> ctx -> Healer_syzlang.Ty.t -> Healer_executor.Value.t
(** Single value for a type ([Len] becomes a placeholder integer). *)

val mutate_args :
  Healer_util.Rng.t ->
  ctx ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Value.t list ->
  Healer_executor.Value.t list
(** Mutate one (occasionally several) of the arguments. *)

val size_of_value : Healer_executor.Value.t -> int
(** Byte-size estimate used to resolve [len\[...\]] arguments. *)
