(** Per-execution handler context and the helpers every simulated
    syscall handler uses: coverage reporting, errno results, bug
    triggering and lock sections. *)

type t = {
  st : State.t;
  cov : Coverage.t;
  san : Sanitizer.config;
  features : string list;
      (** Executor features (e.g. ["usb"]); gates some subsystems. *)
  proc : int;  (** Executor process id, for [proc] typed values. *)
  mutable fault_pending : bool;
      (** Set by the executor when fault injection targets the current
          call; {!take_fault} consumes it. *)
}

type result = { ret : int64; err : Errno.t option }

val make :
  ?features:string list ->
  ?proc:int ->
  st:State.t ->
  san:Sanitizer.config ->
  Coverage.t ->
  t

val ok : int64 -> result
(** Success with a return value (fd, byte count...). *)

val ok0 : result
(** Success returning 0. *)

val err : Errno.t -> result
(** Failure; the return value is [-errno] like the raw Linux ABI. *)

val cover : t -> int -> unit
(** Report passing through branch id. *)

val covern : t -> int -> int list -> unit
(** [covern ctx base offs] covers [base + o] for each offset. *)

val version : t -> Version.t
val has_feature : t -> string -> bool

val take_fault : t -> bool
(** True at most once per injected fault: simulated allocation failure. *)

val bug : t -> string -> unit
(** [bug ctx key] fires the catalog bug [key]: if the bug exists in the
    booted kernel version and an enabled sanitizer detects its risk
    class, raises {!Crash.Crash}. Otherwise the corruption goes
    unnoticed and execution continues (exactly like an unsanitized or
    unaffected kernel). Raises [Invalid_argument] on unknown keys so
    that typos in handlers fail loudly in tests. *)

val bug_fires : t -> string -> bool
(** Would {!bug} raise? (Version and sanitizer check, no side effect.) *)

(** {2 Lock hooks} *)

val with_lock : t -> Lock.cls -> (unit -> 'a) -> 'a
(** [with_lock ctx c f] runs [f] holding [c]. Handlers normally get it
    through {!Subsystem.locked}. The simulator is single-threaded, so
    it never blocks: under {!Validate.enabled} it records the
    acquisition and the release in {!State.log}, which
    {!Kernel.exec_call} checks against the handler's declared spec.
    The release is exception safe ([Fun.protect]), so the log stays
    balanced when a handler raises {!Crash.Crash} mid-section. *)
