(** One shard of a sharded campaign.

    A worker is {e restartable per slice}: each epoch it builds a
    fresh {!Healer_core.Fuzzer} from (config, shard, epoch, base
    view), fuzzes for one time slice, and ships what it found back as
    an incremental {!Shard_state.delta}. The base view is the merged
    global state as of the schedule's front for that epoch,
    reconstructed purely from the coordinator's versioned diffs.
    Besides it, only a {!Healer_core.Fuzzer.Memo.t} of the base
    corpus's replay results survives a slice, and that is a cache
    whose absence changes no output. So the base view, a
    deterministic function of what the coordinator sent, is all that
    decides a delta, which is what makes checkpoint/resume and
    death/respawn exact: a respawned worker (re-seeded with a full
    diff against the empty state, and an empty memo) re-running an
    epoch produces byte-identical output. *)

val seed_for : Checkpoint.config -> shard:int -> epoch:int -> int
(** Deterministic per-(shard, epoch) RNG seed. *)

val run_epoch :
  ?memo:Healer_core.Fuzzer.Memo.t ->
  Checkpoint.config -> shard:int -> epoch:int -> Shard_state.t ->
  Shard_state.delta
(** Pure with respect to its arguments: seeds a fresh fuzzer with the
    base view's relations and corpus, runs one slice, harvests the
    {e full} outcome (callers diff it against the base when shipping
    it over a wire). [memo] only saves the base corpus's replay
    executions; the delta is the same with or without it. *)

val serve : Checkpoint.config -> shard:int -> input:Unix.file_descr ->
  output:Unix.file_descr -> 'a
(** Child-process loop: receive versioned incremental [Epoch] frames
    (epoch index, base-version check, state diff), fold them into the
    base view, answer with incremental [Delta] frames, exit on [Quit],
    peer EOF, or a version desync. Never returns — terminates the
    process via [Unix._exit] (skipping [at_exit], which belongs to the
    parent). *)
