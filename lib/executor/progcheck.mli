(** Program-level static validator: typed dataflow checking of
    {!Prog.t} against a compiled target.

    Every call is checked deeply — arity, constants, flag subsets,
    integer widths/ranges, buffer kinds, union arms, array bounds,
    [len\[...\]] consistency with the sized sibling — and every
    resource reference is checked to point strictly backwards to a
    call producing a compatible kind (honouring inheritance).
    Diagnostics reuse the {!Healer_util.Diagnostic} currency of the
    description analyzer: stable check IDs ([prog-*]), severities,
    positions ([line] is the 1-based call index).

    Errors mark programs the generator / mutator / minimizer /
    serializer must never emit; warnings mark suspicious-but-legal
    shapes (dead producers, uses after a closing call, references in
    output-only slots) that real fuzzing legitimately explores. *)

val checks : (string * Healer_util.Diagnostic.severity * string) list
(** The check catalog: (stable ID, severity, one-line description). *)

val check :
  ?src:string -> Healer_syzlang.Target.t -> Prog.t -> Healer_util.Diagnostic.t list
(** All diagnostics for a program, sorted errors-first then by call
    index. [src] names the program in positions (e.g. a corpus file). *)

val errors :
  ?src:string -> Healer_syzlang.Target.t -> Prog.t -> Healer_util.Diagnostic.t list
(** Only the [Error]-severity diagnostics of {!check}. *)

val is_clean : Healer_syzlang.Target.t -> Prog.t -> bool
(** No [Error]-severity diagnostics (warnings are allowed). *)

(** {1 Debug enforcement}

    The [HEALER_DEBUG_VALIDATE] contract: while
    {!Healer_kernel.Validate.enabled}, the program pipeline
    (generation, mutation, minimization, decoding) asserts
    validator-cleanliness on everything it emits and raises {!Invalid}
    with the diagnostics and the offending program's text otherwise.
    The test suite arms it, benchmarks leave it off. *)

exception Invalid of string

val debug_check : what:string -> Healer_syzlang.Target.t -> Prog.t -> unit
(** [debug_check ~what target p] raises {!Invalid} if debug validation
    is enabled and [p] has validator errors; [what] names the emitting
    stage (e.g. ["Gen.generate"]) in the failure message. *)

(**/**)

val is_closer : Healer_syzlang.Syscall.t -> bool
(** Exposed for tests: the closing-call heuristic used by the
    use-after-close warning (base name contains close / destroy /
    delete / free). *)
