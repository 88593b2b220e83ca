(* One campaign in the current process, reported as lines on stdout:

     metric <name> <float>
     fp <field> <value>          (fingerprint)
     check <name> <ok|fail> <detail>
     front <float>               (seconds between front closes)

   [Bench] runs each campaign in a fresh process so that heap growth
   and timing never depend on what ran before. *)

module Bitset = Healer_util.Bitset
module Vclock = Healer_util.Vclock
module Prog = Healer_executor.Prog
module Kernel = Healer_kernel.Kernel
module Bug = Healer_kernel.Bug
module Version = Healer_kernel.Version
open Healer_core
open Healer_service

type workload = Fuzz of Fuzzer.tool | Serve

let version = Version.V5_11
let fuzz_hours = 24.0

let serve_config ~seed =
  {
    Checkpoint.tool = Fuzzer.Healer;
    version;
    jobs = 2;
    base_seed = seed;
    epochs = 24;
    slice = Vclock.hours 1.0;
  }

let metric name v = Printf.printf "metric %s %.17g\n" name v
let fp (f : Fingerprint.t) = List.iter (fun (k, v) -> Printf.printf "fp %s %s\n" k v) f

let check name ok detail =
  Printf.printf "check %s %s %s\n" name (if ok then "ok" else "fail") detail

let count_metric name n = metric name (float_of_int n)

(* The end-to-end measurements every untraced campaign reports, read
   the moment the campaign ends (before any checking work). *)
let report_process ~t0 ~t_setup =
  let t_end = Unix.gettimeofday () in
  let tm = Unix.times () in
  let st = Gc.quick_stat () in
  let word = float_of_int (Sys.word_size / 8) in
  metric "wall_s" (t_end -. t0);
  metric "setup_s" (t_setup -. t0);
  metric "cpu_s" (tm.tms_utime +. tm.tms_stime +. tm.tms_cutime +. tm.tms_cstime);
  metric "alloc_mwords" (Gc.allocated_bytes () /. word /. 1e6);
  metric "peak_heap_mb" (float_of_int st.top_heap_words *. word /. 1048576.0);
  count_metric "gc.minor" st.minor_collections;
  count_metric "gc.major" st.major_collections

(* Output checks: every crash symbolizes to a catalog bug, every
   corpus program is well formed. *)
let check_outputs ~crash_keys ~progs =
  let unknown = List.filter (fun k -> Bug.find k = None) crash_keys in
  check "crash_keys_in_catalog" (unknown = []) (String.concat "," unknown);
  let bad = List.length (List.filter (fun p -> not (Prog.well_formed p)) progs) in
  check "corpus_well_formed" (bad = 0) (Printf.sprintf "%d_ill_formed" bad)

let check_reload ~dir state =
  let want = Shard_state.digest state in
  match Checkpoint.load (Kernel.target ()) ~path:dir with
  | ck ->
    let got = Shard_state.digest ck.state in
    check "checkpoint_reload" (got = want) got
  | exception (Checkpoint.Malformed msg | Sys_error msg) ->
    check "checkpoint_reload" false msg

let corpus_progs corp =
  let l = ref [] in
  Corpus.iter (fun p -> l := p :: !l) corp;
  !l

let fuzz_plain tool ~seed ~t0 =
  let f = Fuzzer.create (Fuzzer.config ~seed ~tool ~version ()) in
  let t_setup = Unix.gettimeofday () in
  Fuzzer.run_until f (Vclock.hours fuzz_hours);
  report_process ~t0 ~t_setup;
  count_metric "execs" (Fuzzer.execs f);
  count_metric "coverage" (Fuzzer.coverage f);
  count_metric "crashes" (Triage.unique_count (Fuzzer.triage f));
  count_metric "relations" (Fuzzer.relation_count f);
  fp
    (Fingerprint.fuzz ~execs:(Fuzzer.execs f) ~coverage:(Fuzzer.coverage_set f)
       ~corpus:(Fuzzer.corpus f) ~relations:(Fuzzer.relations f)
       ~triage:(Fuzzer.triage f));
  check_outputs
    ~crash_keys:
      (List.map (fun (r : Triage.record) -> r.bug_key) (Triage.records (Fuzzer.triage f)))
    ~progs:(corpus_progs (Fuzzer.corpus f))

let report_state (s : Shard_state.t) =
  count_metric "execs" (Shard_state.total_execs s);
  count_metric "coverage" (Bitset.count s.coverage);
  count_metric "crashes" (List.length s.crashes);
  count_metric "relations" (Relation_table.count s.relations);
  fp (Fingerprint.serve s);
  check_outputs
    ~crash_keys:(List.map (fun (r : Triage.record) -> r.bug_key) s.crashes)
    ~progs:(List.map snd s.corpus)

let serve_run ~forked ~seed ~t0 ~dir =
  Kernel.force_init ();
  let ck = Coordinator.initial (serve_config ~seed) in
  let t_setup = Unix.gettimeofday () in
  let closes = ref [ t_setup ] in
  let on_epoch _ = closes := Unix.gettimeofday () :: !closes in
  let o = Coordinator.run ~forked ~checkpoint_dir:dir ~on_epoch ck in
  report_process ~t0 ~t_setup;
  let rec gaps = function
    | a :: (b :: _ as tl) ->
      Printf.printf "front %.17g\n" (a -. b);
      gaps tl
    | _ -> ()
  in
  gaps !closes;
  count_metric "wire.bytes_sent" o.bytes_sent;
  count_metric "wire.bytes_recv" o.bytes_recv;
  count_metric "wire.frames" (o.frames_sent + o.frames_recv);
  count_metric "coordinator.respawns" o.respawns;
  report_state o.final.state;
  check "epochs_completed" (o.final.completed = o.final.config.epochs)
    (string_of_int o.final.completed);
  check_reload ~dir o.final.state

(* {2 Traced} *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_call_us sp l =
  let n = Span.calls sp l in
  if n = 0 then 0.0 else Span.self sp l /. float_of_int n *. 1e6

let report_trace (tr : Replica.tracer) ~t0 =
  let sp = tr.sp and c = tr.c in
  let open Replica.L in
  metric "wall_s" (Unix.gettimeofday () -. t0);
  let calls name l = count_metric name (Span.calls sp l) in
  let self name l = metric name (Span.self sp l) in
  calls "select.calls" select;
  self "select.self_s" select;
  calls "choice_table.calls" choice_table;
  self "choice_table.self_s" choice_table;
  metric "choice_table.us_per_call" (per_call_us sp choice_table);
  calls "gen.calls" gen;
  self "gen.self_s" gen;
  metric "gen.us_per_call" (per_call_us sp gen);
  calls "mutate.calls" mutate;
  self "mutate.self_s" mutate;
  self "corpus.self_s" corpus;
  calls "exec.main_calls" exec_main;
  self "exec.main_s" exec_main;
  metric "exec.us_per_call" (per_call_us sp exec_main);
  calls "exec.probe_calls" exec_probe;
  self "exec.probe_s" exec_probe;
  metric "exec.cache_hit_ratio" (ratio c.cache_hits (c.cache_hits + c.cache_misses));
  calls "feedback.calls" feedback;
  self "feedback.self_s" feedback;
  metric "feedback.interesting_ratio" (ratio c.interesting (Span.calls sp feedback));
  calls "minimize.calls" minimize;
  self "minimize.self_s" minimize;
  metric "minimize.probes_per_call" (ratio c.minimize_probes (Span.calls sp minimize));
  calls "dynlearn.calls" dynlearn;
  self "dynlearn.self_s" dynlearn;
  metric "dynlearn.relations_per_probe" (ratio c.learned c.dynlearn_probes);
  calls "triage.calls" triage;
  self "triage.self_s" triage;
  metric "triage.probes_per_crash" (ratio c.triage_probes c.unique_crashes);
  metric "trace.attributed_ratio" (Span.attributed sp ~root:campaign)

let report_worker_trace (tr : Replica.tracer) =
  let sp = tr.sp and c = tr.c in
  let open Replica.L in
  metric "worker.setup_s" (Span.total sp worker_setup);
  metric "worker.replay_s" (Span.total sp worker_replay);
  count_metric "worker.replay_execs" c.replay_execs;
  metric "worker.fuzz_s" (Span.total sp worker_fuzz);
  count_metric "worker.fuzz_execs" c.fuzz_execs;
  metric "worker.useful_exec_ratio" (ratio c.fuzz_execs (c.fuzz_execs + c.replay_execs));
  count_metric "worker.idle_epochs" c.idle_epochs;
  metric "worker.harvest_s" (Span.self sp worker_harvest);
  metric "shard_state.apply_s" (Span.self sp shard_apply);
  metric "shard_state.diff_s" (Span.self sp shard_diff);
  metric "shard_state.encode_s" (Span.self sp shard_encode);
  metric "checkpoint.encode_s" (Span.self sp ck_encode);
  metric "checkpoint.save_s" (Span.self sp ck_save);
  count_metric "checkpoint.bytes" c.checkpoint_bytes

let fuzz_traced tool ~seed ~t0 =
  let tr = Replica.tracer () in
  let cfg = Fuzzer.config ~seed ~tool ~version () in
  let f = Replica.fuzz_campaign tr cfg ~hours:fuzz_hours in
  report_trace tr ~t0;
  fp (Replica.fingerprint f)

let serve_traced ~seed ~t0 ~dir =
  let tr = Replica.tracer () in
  let ck = Replica.serve_campaign tr (serve_config ~seed) ~dir in
  report_trace tr ~t0;
  report_worker_trace tr;
  fp (Fingerprint.serve ck.state);
  check_reload ~dir ck.state

(* One run of the calibration workload, timed from inside, so that
   process start-up does not blur the host-speed reading. *)
let calibrate () =
  let t0 = Unix.gettimeofday () and c0 = Sys.time () in
  let sum = Sys.opaque_identity (Calib.run ()) in
  metric "calib_wall_s" (Unix.gettimeofday () -. t0);
  metric "calib_cpu_s" (Sys.time () -. c0);
  Printf.printf "fp checksum %d\n" sum;
  flush stdout

type mode = Plain | Inproc | Traced

let run workload mode ~seed ~t0 ~dir =
  (match (workload, mode) with
  | Fuzz tool, Plain -> fuzz_plain tool ~seed ~t0
  | Fuzz tool, Traced -> fuzz_traced tool ~seed ~t0
  | Fuzz _, Inproc -> invalid_arg "Child.run: inproc is a serve mode"
  | Serve, Plain -> serve_run ~forked:true ~seed ~t0 ~dir
  | Serve, Inproc -> serve_run ~forked:false ~seed ~t0 ~dir
  | Serve, Traced -> serve_traced ~seed ~t0 ~dir);
  flush stdout
