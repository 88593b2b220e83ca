module Bitset = Healer_util.Bitset
module Serializer = Healer_executor.Serializer
module Corpus = Healer_core.Corpus
module Fuzzer = Healer_core.Fuzzer
module Relation_table = Healer_core.Relation_table
module Triage = Healer_core.Triage

(* Distinct odd multipliers keep (shard, epoch) seed collisions out of
   any realistic campaign size. *)
let seed_for (cfg : Checkpoint.config) ~shard ~epoch =
  cfg.base_seed + (shard * 1_000_003) + (epoch * 7919)

let run_epoch ?memo (cfg : Checkpoint.config) ~shard ~epoch (g : Shard_state.t) =
  let fuzzer_cfg =
    Fuzzer.config ~seed:(seed_for cfg ~shard ~epoch) ~tool:cfg.tool
      ~version:cfg.version ()
  in
  let initial_relations =
    if Relation_table.count g.relations > 0 then Some g.relations else None
  in
  let f = Fuzzer.create ?initial_relations ~initial_seeds:g.corpus ?memo fuzzer_cfg in
  Fuzzer.run_until f cfg.slice;
  (* Workers fuzz a [0, slice) virtual clock each epoch; offset crash
     times so first_found is campaign-global and the earliest-wins
     merge rule compares like with like. *)
  let epoch_start = float_of_int epoch *. cfg.slice in
  (* The corpus already keyed every program when it was added. *)
  let corpus = ref [] in
  Corpus.iter_keyed (fun key p -> corpus := (key, p) :: !corpus) (Fuzzer.corpus f);
  let relations =
    match Fuzzer.relations f with
    | Some r -> Relation_table.copy r
    | None -> Relation_table.create g.n_syscalls
  in
  let outcome =
    {
      Shard_state.n_syscalls = g.n_syscalls;
      relations;
      coverage = Bitset.copy (Fuzzer.coverage_set f);
      corpus = !corpus;
      crashes =
        List.map
          (fun (r : Triage.record) ->
            { r with first_found = r.first_found +. epoch_start })
          (Triage.records (Fuzzer.triage f));
      execs = [];
    }
  in
  { Shard_state.shard; epoch; d_execs = Fuzzer.execs f; outcome }

let serve (cfg : Checkpoint.config) ~shard ~input ~output =
  let target = Healer_kernel.Kernel.target () in
  let inp = Wire.endpoint input and out = Wire.endpoint output in
  (* The worker's base view of the merged global state: grown only by
     the coordinator's incremental diffs, versioned by their count so
     a desync is caught instead of silently diverging. The fuzzing
     outcome is shipped back as a diff against this base — O(what this
     slice discovered) bytes, not O(total state). *)
  let base = ref (Shard_state.of_target target) in
  let version = ref 0 in
  (* Replay results of the base corpus, kept for the process's life.
     The base only grows, so the memo holds at most its final size. *)
  let memo = Fuzzer.Memo.create ~tool:cfg.tool ~version:cfg.version in
  let rec loop () =
    match Wire.recv inp with
    | Wire.Quit, _ -> Unix._exit 0
    | Wire.Delta, _ -> Unix._exit 3
    | Wire.Epoch, payload ->
      let pos = ref 0 in
      let epoch = Wire.get_int payload pos in
      let ver = Wire.get_int payload pos in
      if ver <> !version then Unix._exit 3;
      let d = Shard_state.of_string target (Wire.get_all payload pos) in
      if not (Shard_state.is_empty d) then base := Shard_state.merge !base d;
      incr version;
      let d = run_epoch ~memo cfg ~shard ~epoch !base in
      let d =
        { d with Shard_state.outcome = Shard_state.diff ~since:!base d.outcome }
      in
      Wire.send out Wire.Delta (fun buf -> Shard_state.put_delta buf d);
      loop ()
  in
  try loop () with
  | End_of_file -> Unix._exit 0 (* coordinator went away *)
  | _ -> Unix._exit 3
