(* Every metric the benchmark reports, in report order, with its unit.
   BENCHMARK.json lists the same names; run.py refuses a result whose
   names or units differ from it. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("cpu_s", "s");
    ("setup_s", "s");
    ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MB");
    ("coverage", "branches");
    ("crashes", "count");
  ]

let per_layer =
  [
    ("select.calls", "count");
    ("select.self_s", "s");
    ("choice_table.calls", "count");
    ("choice_table.self_s", "s");
    ("choice_table.us_per_call", "us");
    ("gen.calls", "count");
    ("gen.self_s", "s");
    ("gen.us_per_call", "us");
    ("mutate.calls", "count");
    ("mutate.self_s", "s");
    ("corpus.self_s", "s");
    ("exec.main_calls", "count");
    ("exec.main_s", "s");
    ("exec.us_per_call", "us");
    ("exec.probe_calls", "count");
    ("exec.probe_s", "s");
    ("exec.cache_hit_ratio", "ratio");
    ("feedback.calls", "count");
    ("feedback.self_s", "s");
    ("feedback.interesting_ratio", "ratio");
    ("minimize.calls", "count");
    ("minimize.self_s", "s");
    ("minimize.probes_per_call", "ratio");
    ("dynlearn.calls", "count");
    ("dynlearn.self_s", "s");
    ("dynlearn.relations_per_probe", "ratio");
    ("triage.calls", "count");
    ("triage.self_s", "s");
    ("triage.probes_per_crash", "ratio");
    ("gc.minor", "count");
    ("gc.major", "count");
    ("alloc.words_per_exec", "words");
    ("relations", "count");
    ("worker.setup_s", "s");
    ("worker.replay_s", "s");
    ("worker.replay_execs", "count");
    ("worker.fuzz_s", "s");
    ("worker.fuzz_execs", "count");
    ("worker.useful_exec_ratio", "ratio");
    ("worker.idle_epochs", "count");
    ("worker.harvest_s", "s");
    ("shard_state.apply_s", "s");
    ("shard_state.diff_s", "s");
    ("shard_state.encode_s", "s");
    ("checkpoint.encode_s", "s");
    ("checkpoint.save_s", "s");
    ("checkpoint.bytes", "B");
    ("wire.bytes_sent", "B");
    ("wire.bytes_recv", "B");
    ("wire.frames", "count");
    ("coordinator.front_s_p50", "s");
    ("coordinator.front_s_max", "s");
    ("coordinator.respawns", "count");
    ("error_rate", "ratio");
    ("trace.attributed_ratio", "ratio");
    ("trace.overhead_s", "s");
  ]

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or
   a digit. *)
let valid_name s =
  let n = String.length s in
  n > 0
  && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s
