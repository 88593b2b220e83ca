(** A virtual-machine instance: the QEMU analogue.

    Owns a booted kernel and its lifecycle: executing a crashing test
    case leaves the VM in a crashed state, and it must be reset before
    the next execution — the campaign engine charges boot time for
    that, as a real fuzzer pays for QEMU restarts. *)

type stats = {
  mutable execs : int;
  mutable crashes : int;
  mutable resets : int;
}

type t

val create :
  ?san:Healer_kernel.Sanitizer.config ->
  ?features:string list ->
  version:Healer_kernel.Version.t ->
  id:int ->
  unit ->
  t

val id : t -> int
val crashed : t -> bool

val reset : t -> unit
(** Recover from a crash: clears {!crashed} and counts the reset
    (no-op on a healthy VM). No reboot is needed here, because every
    {!run} executes on a freshly booted kernel. *)

val run : t -> ?fault_call:int -> Prog.t -> Exec.run_result
(** Execute a program. Automatically {!reset}s first when the previous
    run crashed. *)

val stats : t -> stats
val version : t -> Healer_kernel.Version.t
