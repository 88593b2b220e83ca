(** Shared kernel state: the file-descriptor table, per-subsystem
    global slots and, under debug validation, the log of lock and slot
    accesses.

    Subsystems extend {!fd_kind} with their own object constructors
    (like [struct file] private data) and register whole-subsystem
    state (device registries, journals, console) under named {!global}
    slots. A slot is created on first touch by its subsystem's
    accessor, not at boot (see {!Subsystem}). *)

type fd_kind = ..
(** Extended by each subsystem, e.g. [State.fd_kind += Memfd of memfd]. *)

type fd_kind += Dead  (** A closed descriptor whose number was reused. *)

type fd_entry = {
  fd : int;
  mutable kind : fd_kind;
  mutable refs : int;  (** Reference count ([dup] raises it). *)
  mutable closed : bool;
}

type global = ..
(** Extended by subsystems for their non-fd state. *)

type t

val create : version:Version.t -> t
(** A fresh kernel: no descriptors, no globals, counters at zero, an
    empty access log.
    Every execution starts from one, so it is kept cheap. *)

val version : t -> Version.t

val tick : t -> int
(** Bump and return the global operation counter. Handlers use
    distances between ticks to model data-race windows
    deterministically. *)

val now : t -> int
(** Current operation counter without bumping. *)

(** {2 File descriptors} *)

val alloc_fd : t -> fd_kind -> fd_entry
(** Install a new descriptor at the lowest unused number (>= 3). *)

val lookup_fd : t -> int -> fd_entry option
(** [None] for unknown or closed descriptors. *)

val lookup_fd_raw : t -> int -> fd_entry option
(** Like {!lookup_fd} but returns closed entries too (needed for
    use-after-free modeling). *)

val close_fd : t -> int -> bool
(** Drop one reference; marks the entry closed when the count reaches
    zero. Returns false for unknown/already-closed descriptors. *)

val dup_fd : t -> int -> int option
(** Allocate a new descriptor number sharing the same object (bumps the
    refcount) and return it. *)

val live_fds : t -> fd_entry list
(** Open descriptors in ascending fd order. *)

val exists_fd : t -> (fd_entry -> bool) -> bool
(** Does any open descriptor satisfy the predicate? (No allocation or
    ordering — safe for hot paths.) *)

(** {2 Global slots} *)

val set_global : t -> string -> global -> unit
val global : t -> string -> global option
(** [None] until the owning subsystem's accessor first runs. *)

(** {2 Named counters}

    Small integer scratchpad for cross-call conditions that do not
    warrant a dedicated record (e.g. "number of faults injected"). *)

val incr_counter : t -> string -> int
(** Increment and return the new value (counters start at 0). *)

val counter : t -> string -> int
val set_counter : t -> string -> int -> unit

(** {2 The access log}

    While {!Validate} is armed, the kernel records every lock
    acquisition and release ([Ctx.with_lock]) and every state-slot
    read and write (the instrumented subsystem accessors, with
    [Effect]'s interned slot indices) in one log per state. Each
    record costs one flag test while validation is off, and results
    never depend on the log. [Kernel.exec_call] checks each call's
    slice of it against the handler's declared specs; the
    [Kernel] count functions fold it. *)

type access =
  | Acquire of string  (** Lock class name. *)
  | Release of string
  | Read of int  (** [Effect] slot index. *)
  | Write of int

val record_acquire : t -> string -> unit
val record_release : t -> string -> unit
val record_read : t -> int -> unit
val record_write : t -> int -> unit

val log : t -> access list
(** Every access recorded since {!create}, newest first. Empty unless
    {!Validate.enabled} was set while the accesses ran. *)
