(** The campaign coordinator: drives N worker shards through a
    deterministic pipelined schedule, folds their incremental deltas
    into merged CRDT fronts, checkpoints at every merge, and respawns
    workers that die mid-slice.

    {b The lag-2 schedule.} Front [F_k] is the join of the campaign's
    initial state with every shard's deltas through epoch [k]. Epoch
    [e] of {e every} shard is seeded with exactly [F_(e-2)] (fronts
    below the start are the initial state) — one epoch staler than a
    lockstep barrier would use, and that slack is what removes the
    barrier: a shard may start slice [e] the moment [F_(e-2)] closes,
    while slower shards are still finishing epoch [e-1]. Because the
    seed is a function of (config, shard, epoch) and never of arrival
    timing, each delta equals the one the in-process run computes,
    and the CRDT fold makes every front — hence the final digest —
    independent of timing. Shards can drift at most two epochs apart,
    so only the newest two fronts are retained (and checkpointed, see
    {!Checkpoint.t.prev}).

    All traffic is incremental: the coordinator ships each worker the
    {!Shard_state.diff} between the front it is due and the front it
    already holds (serialized once per front transition, not per
    shard), and workers answer with diffs against their base view —
    O(new work) bytes per frame in steady state, not O(total state).
    Worker death (EOF, [EPIPE], garbled frame, version desync) buries
    the corpse and respawns from an empty base (full diff on the next
    dispatch); the pure {!Worker.run_epoch} reproduces the lost delta
    exactly, so crashes never perturb campaign results. *)

val initial : Checkpoint.config -> Checkpoint.t
(** A fresh zero-epoch checkpoint for the booted kernel target. *)

type progress = {
  epoch : int;  (** Index of the front that just closed. *)
  epochs : int;
  state : Shard_state.t;  (** The closed front. *)
  respawns : int;
  bytes_sent : int;  (** Cumulative coordinator→worker wire bytes. *)
  bytes_recv : int;  (** Cumulative worker→coordinator wire bytes. *)
}

type outcome = {
  final : Checkpoint.t;
  respawns : int;  (** Worker deaths recovered from. *)
  bytes_sent : int;
  bytes_recv : int;
  frames_sent : int;
  frames_recv : int;
}

val run :
  ?forked:bool ->
  ?checkpoint_dir:string ->
  ?stop_after:int ->
  ?on_epoch:(progress -> unit) ->
  ?chaos:(epoch:int -> (int * int) list -> unit) ->
  Checkpoint.t ->
  outcome
(** Run the campaign from [ck.completed] up to [ck.config.epochs]
    (or [stop_after], for simulating an interrupted daemon — workers
    are still shut down cleanly; a fast shard's work past the last
    closed front is discarded and deterministically recomputed on
    resume).

    [forked] (default true) forks one OS process per shard talking the
    {!Wire} protocol over pipes; when false every shard's epoch is
    computed in-process under the same lag-2 schedule, producing
    bit-identical results — the test suite's oracle.

    [checkpoint_dir] persists the checkpoint atomically at start and
    at every front close. [on_epoch] observes each closed front in
    order. [chaos] (tests only) is called once per epoch round with
    the live [(shard, pid)] list so tests can [kill] workers mid-slice
    and exercise the respawn path. *)
