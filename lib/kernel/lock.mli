(** The lock model: named lock classes with a declared nesting order,
    the shared-state slots each class guards, per-handler declared lock
    specs, and the checking core shared by the static lockdep pass
    ([Healer_analysis.Lockdep]) and the runtime validator in
    {!Kernel.exec_call}.

    The simulated kernel is single-threaded, so acquire/release never
    block: under debug validation ({!Validate}) the hooks record each
    acquisition in the kernel's access log, and lockdep checks the
    declared discipline — exactly like Linux's lockdep reports
    would-be deadlocks on executions that never actually deadlock. *)

(** {2 Lock classes} *)

type cls = {
  cname : string;  (** Class name, e.g. ["rtnl"]. *)
  rank : int;
      (** Declared nesting order: a handler may only acquire a class
          whose rank is >= every rank it already holds. *)
  guards : string list;
      (** The {!State.global} slot names (["netdevs"]) and fd-payload
          pseudo-slots (["fd:sock"]) this class protects. *)
}

val make : ?guards:string list -> rank:int -> string -> cls
(** A class value without registering it — for test fixtures building
    broken models. *)

val register : ?guards:string list -> rank:int -> string -> cls
(** Register (idempotently, by name) into the process-global class
    registry; subsystem modules call this at module-init time. *)

val registered : unit -> cls list
(** In registration order. *)

val find : string -> cls option

(** {2 Declared specs} *)

type op = Acquire of string | Release of string

type spec = {
  ops : op list;  (** The declared acquire/release sequence. *)
  touches : string list;
      (** Slots (as in {!cls.guards}) the handler mutates — the
          guard-coverage input. *)
}

val scoped : ?touches:string list -> string list -> spec
(** [scoped ~touches classes] declares well-bracketed acquisition:
    acquire in list order, release in reverse. *)

val acquires : spec -> string list
(** The acquire sequence of a spec, in order. *)

type model = {
  classes : cls list;
  specs : (string * string * spec) list;
      (** [(subsystem, handler, declared spec)]. *)
}

(** {2 Checking}

    Findings use stable [lock-*] check IDs; {!Healer_analysis.Lockdep}
    maps them onto the Diagnostic framework. *)

type finding = { check : string; subject : string; msg : string }

exception Violation of finding
(** Raised by the runtime validator in {!Kernel.exec_call} (never by
    the pure checkers below). *)

val check_model :
  ?reads:(string * string * string list) list -> model -> finding list
(** Static lockdep over the declared model: unknown classes, double
    acquire, release of unheld, held-at-exit, rank inversions,
    declared-order cycles (ABBA), guard coverage and unused classes.
    [reads] extends guard coverage to the read side:
    [(subsystem, handler, slots read)] triples — reading a slot some
    class guards without holding any guarding class also warns under
    [lock-guard-coverage]. Sorted and deduplicated; empty on a clean
    model. *)

val order_edges : model -> (string * string) list
(** The declared lock-order graph: deduped [(outer, inner)] nesting
    edges over every spec, in first-witness order. *)

val check_trace :
  model -> subsystem:string -> handler:string -> op list -> finding list
(** Validate one recorded acquisition trace against the model: the
    structural checks of {!check_model}, plus the runtime acquire
    order must be a subsequence of the handler's declared spec
    ([lock-spec-mismatch]) and must not invert the declared order
    graph. *)
