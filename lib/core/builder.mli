(** Program assembly over a mutable {!Healer_executor.Prog.Builder}:
    creating calls with resource arguments wired to earlier producers,
    and inserting the producer chain a call needs when none exists yet
    in the sequence. Callers chain many insertions (generation, guided
    mutation, seed traces), so each costs one amortized array slot
    instead of a whole-program copy. *)

val producers_for :
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.t ->
  upto:int ->
  string ->
  int list
(** Indices [< upto] of calls whose produced resource kind is
    compatible with consumer kind. Kept for callers that hold an
    immutable program ([Mutate]), so they need not copy it into a
    builder per call. *)

val producers_for_b :
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  upto:int ->
  string ->
  int list
(** {!producers_for} over a builder. *)

val make_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  Healer_executor.Prog.call
(** Synthesize arguments for the call as if inserted at position [at]
    (resource refs drawn from calls [0 .. at-1]). *)

val insert_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  at:int ->
  Healer_syzlang.Syscall.t ->
  unit
(** Insert the call at [at], first inserting producers (recursively, up
    to depth 3) for any consumed resource kind that has no compatible
    producer earlier in the sequence. *)

val append_call_b :
  Healer_util.Rng.t ->
  Healer_syzlang.Target.t ->
  Healer_executor.Prog.Builder.t ->
  Healer_syzlang.Syscall.t ->
  unit

val max_prog_len : int
(** Hard cap on generated program length (the paper's sequences range
    up to ~32 calls). *)
