(** The debug-validation switch: one flag for the whole
    [HEALER_DEBUG_VALIDATE] contract.

    When armed, the program pipeline asserts validator-cleanliness
    ({!Healer_executor.Progcheck}), the kernel records every call's
    lock and state-slot accesses in its {!State} log, and
    {!Kernel.exec_call} checks each call's slice of that log against
    the handler's declared lock and effect specs. It starts armed when
    [HEALER_DEBUG_VALIDATE] is set to anything except
    [0 | false | no | off] or the empty string; the test suite arms
    it, campaigns leave it off. *)

val enabled : unit -> bool

val set : bool -> unit
