(** The assembled simulated kernel: boots a {!State.t} for a version,
    compiles the union of all subsystem descriptions into a
    {!Healer_syzlang.Target.t}, and dispatches executed calls to
    subsystem handlers.

    This module is the executor's only entry point into the kernel. *)

type t
(** A booted kernel instance. *)

val subsystems : unit -> Subsystem.t list
(** All registered subsystems (registers them on first use). *)

val target : unit -> Healer_syzlang.Target.t
(** The compiled description set (memoized; identical across boots). *)

val source : unit -> string
(** The full Syzlang corpus: every subsystem's descriptions
    concatenated in registration order — exactly what {!target}
    compiles. *)

val locate_line : int -> (string * int) option
(** Map a 1-based line of {!source} back to [(subsystem, local line)].
    [None] for lines past the end. Lets analysis diagnostics point at
    the subsystem that owns a declaration. *)

val subsystem_of : string -> string
(** [subsystem_of syscall_name] is the name of the subsystem whose
    handler serves the call, or ["?"] for unknown names. Used by the
    Moonshine baseline's read-write dependency approximation. *)

val force_init : unit -> unit
(** Force every lazily initialized process-global (subsystem registry,
    memoized target, handler/subsystem/line dispatch tables, lock and
    effect models, crash symbol table, coverage-region lookup). The
    globals are read-only afterwards, making kernel boots and
    executions safe from multiple domains. Must be called before
    spawning any domain that touches the kernel;
    {!Healer_core.Campaign.run_matrix} does so. *)

val boot :
  ?san:Sanitizer.config ->
  ?features:string list ->
  version:Version.t ->
  unit ->
  t
(** Boot a fresh kernel: an empty {!State.t}. Subsystem state is
    created when a call first touches it (see {!Subsystem}), so a boot
    costs a few small tables whatever the program runs. [features] are
    executor capabilities (e.g. ["usb"; "fault_injection"]) visible to
    handlers. *)

val reboot : t -> t
(** Fresh state with the same version, sanitizer config and features. *)

val version : t -> Version.t
val state : t -> State.t
val sanitizers : t -> Sanitizer.config
val features : t -> string list

(** {2 Lock model} *)

val lock_model : unit -> Lock.model
(** The assembled lock model: every registered {!Lock.cls} plus every
    subsystem's declared handler specs. Memoized; the lockdep analysis
    pass and the runtime validator below both read it. *)

val lock_pair_counts : t -> ((string * string) * int) list
(** Lock-pair acquisition counts folded from this kernel's access log
    ({!State.log}): [((outer, inner), n)] meaning [inner] was acquired
    [n] times while [outer] was held, counted once per held [outer] at
    each acquisition. Sorted. The queryable concurrency-coverage
    signal behind [healer analyze --locks]. The log is recorded only
    under {!Validate.enabled}, so a kernel that ran unarmed returns
    []. Accesses of a call that crashed still count. *)

val lock_acquire_counts : t -> (string * int) list
(** Total acquisitions per lock class from the same log, sorted by
    class name. *)

(** {2 Effect model} *)

val effect_model : unit -> Effect.model
(** The assembled effect model: the interned slot vocabulary unioned
    with every lock class's guarded slots, plus every subsystem's
    declared handler effect specs. Memoized; read by the effect-drift
    / race / relation-inference passes and the runtime validator. *)

val effect_counts : t -> (string * int * int) list
(** Per-slot [(slot, reads, writes)] access counts folded from the
    same log as {!lock_pair_counts}, sorted by slot name: [] unless
    the kernel ran under {!Validate.enabled}. The observed-access
    signal behind [healer analyze --effects]. *)

val exec_call :
  t ->
  ?fault:bool ->
  cov:Coverage.t ->
  Healer_syzlang.Syscall.t ->
  Arg.t list ->
  Ctx.result
(** Execute one call against the kernel. Coverage lands in [cov]
    (caller resets it between calls). [fault] injects an allocation
    failure into this call. May raise {!Crash.Crash}. Unknown syscall
    names return [ENOSYS]. Under {!Validate.enabled} the call's slice
    of the access log is checked: its lock operations against the
    handler's declared spec and the order graph (a divergence raises
    {!Lock.Violation}), then its state-slot reads and writes against
    the handler's declared {!Effect.spec} (drift raises
    {!Effect.Violation}). *)

val coredump : t -> cov:Coverage.t -> unit
(** Run the core-dump path, entered after a fault-injected call kills
    the executor process. Covers the binfmt_elf blocks and can trigger
    the [fill_thread_core_info] KMSAN bug (the paper's Listing 2 /
    Section 7 case study). May raise {!Crash.Crash}. *)
