(** Program execution against a booted simulated kernel.

    Each run resolves the program's symbolic values, executes the
    calls in order, and collects per-call branch coverage — the
    feedback HEALER's minimization and dynamic relation learning
    consume. A crash aborts the run; the remaining calls are not
    executed (the guest has paniced). *)

type call_result = {
  retval : int64;
  errno : Healer_kernel.Errno.t option;
  cov : int list;  (** Branch ids covered by this call, first-hit order. *)
  executed : bool;  (** False for calls after a crash / process kill. *)
}

type run_result = {
  calls : call_result array;  (** One slot per program call. *)
  crash : Healer_kernel.Crash.report option;
}

val run :
  ?fault_call:int ->
  ?fresh_state:bool ->
  ?cov:Healer_kernel.Coverage.t ->
  Healer_kernel.Kernel.t ->
  Prog.t ->
  Healer_kernel.Kernel.t * run_result
(** [run kernel prog] executes [prog]. With [fresh_state] (default
    true) the kernel is re-booted first, making runs reproducible —
    the executor forks a pristine process per test case.
    [fault_call i] injects an allocation failure into call [i]; the
    process is then killed and the kernel runs its core-dump path
    (which may itself crash). [cov] is the coverage collector to
    (re)use — pass a long-lived one to avoid allocating dedup state
    per run; a fresh one is created when absent. Returns the
    (possibly re-booted) kernel and the result. *)

val cov_equal : int list -> int list -> bool
(** Set equality of two per-call coverage traces (order-insensitive),
    the comparison both Algorithm 1 and Algorithm 2 perform. *)

type cov_key
(** A coverage trace in sorted duplicate-free form, for comparing one
    reference trace against many probes without re-sorting it. *)

val cov_key : int list -> cov_key
val cov_matches : cov_key -> int list -> bool
(** [cov_matches (cov_key a) b] is [cov_equal a b]. *)

val total_cov : run_result -> int list
(** Union of all per-call coverage, deduplicated. *)
