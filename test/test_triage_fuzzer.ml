(* Crash triage, the fuzzing loop and the campaign engine. *)

module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module K = Healer_kernel
open Healer_core
open Helpers

let exec_cb ?(version = K.Version.V5_11) () =
  let kernel = boot ~version () in
  fun p -> snd (Exec.run kernel p)

let crash_prog_with_noise () =
  prog
    [
      call "open" [ s "/etc/passwd"; i 0L; i 0L ];
      call "socket$tcp" [ i 2L; i 1L; i 6L ];
      call "connect" [ r 1; group [ i 2L; i 80L; i 1L ] ];
      call "connect$unspec" [ r 1; i 0L ];
      call "close" [ r 0 ];
    ]

(* ---- symbolization ---- *)

let test_symbolize_all_catalog () =
  (* Every rendered crash log must symbolize back to its bug. *)
  List.iter
    (fun (b : K.Bug.t) ->
      let log =
        K.Crash.render_log ~bug_key:b.K.Bug.key ~risk:b.K.Bug.risk
          ~call_name:"test"
      in
      match K.Crash.symbolize log with
      | Some (key, risk) ->
        Alcotest.(check string) ("key " ^ b.K.Bug.key) b.K.Bug.key key;
        Alcotest.(check string) "risk" (K.Risk.to_string b.K.Bug.risk)
          (K.Risk.to_string risk)
      | None -> Alcotest.fail ("unsymbolizable log for " ^ b.K.Bug.key))
    K.Bug.catalog

let test_symbolize_rejects_noise () =
  Alcotest.(check bool) "not a crash" true (K.Crash.symbolize "hello\nworld" = None);
  Alcotest.(check bool) "unknown address" true
    (K.Crash.symbolize "BUG: KASAN: use-after-free in 0x1\nRIP: 0010:0x1" = None)

(* ---- triage ---- *)

let test_triage_dedup_and_minimize () =
  let t = Triage.create ~exec:(exec_cb ()) in
  let p = crash_prog_with_noise () in
  let result = (exec_cb ()) p in
  let report = Option.get result.Exec.crash in
  Alcotest.(check bool) "first is new" true (Triage.on_crash t ~vtime:10.0 p report);
  Alcotest.(check bool) "second is dup" false (Triage.on_crash t ~vtime:20.0 p report);
  Alcotest.(check int) "one unique" 1 (Triage.unique_count t);
  match Triage.found t "tcp_disconnect" with
  | None -> Alcotest.fail "record missing"
  | Some record ->
    Alcotest.(check (float 1e-9)) "first time kept" 10.0 record.Triage.first_found;
    (* The reproducer is the 3-call core: socket, connect, unspec. *)
    Alcotest.(check int) "minimized length" 3 record.Triage.repro_len;
    let rerun = (exec_cb ()) record.Triage.reproducer in
    check_crash "reproducer still crashes" (Some "tcp_disconnect") rerun

let test_triage_distinct_bugs () =
  let t = Triage.create ~exec:(exec_cb ()) in
  let feed p =
    let result = (exec_cb ()) p in
    match result.Exec.crash with
    | Some report -> ignore (Triage.on_crash t ~vtime:1.0 p report)
    | None -> Alcotest.fail "expected a crash"
  in
  feed (crash_prog_with_noise ());
  feed
    (prog
       [
         call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
         call "openat$ptmx" [ i (-100L); s "/dev/ptmx"; i 0L ];
       ]);
  Alcotest.(check int) "two uniques" 2 (Triage.unique_count t);
  Alcotest.(check int) "ordered records" 2 (List.length (Triage.records t))

(* ---- fuzzer loop ---- *)

let short_run ?(tool = Fuzzer.Healer) ?(version = K.Version.V5_11) ?(minutes = 20.) ()
    =
  let cfg = Fuzzer.config ~seed:3 ~tool ~version () in
  let f = Fuzzer.create cfg in
  Fuzzer.run_until f (minutes *. 60.0);
  f

let test_fuzzer_progresses () =
  let f = short_run () in
  Alcotest.(check bool) "coverage" true (Fuzzer.coverage f > 100);
  Alcotest.(check bool) "execs" true (Fuzzer.execs f > 100);
  Alcotest.(check bool) "corpus" true (Corpus.size (Fuzzer.corpus f) > 0);
  Alcotest.(check bool) "clock advanced" true (Fuzzer.now f >= 20.0 *. 60.0)

let test_fuzzer_samples_monotone () =
  let f = short_run () in
  let samples = Fuzzer.samples f in
  Alcotest.(check bool) "sampled" true (List.length samples >= 19);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "coverage non-decreasing" true (monotone samples);
  let times = List.map fst samples in
  Alcotest.(check bool) "one-minute cadence" true
    (List.for_all2
       (fun a b -> b -. a = 60.0)
       (List.filteri (fun k _ -> k < List.length times - 1) times)
       (List.tl times))

let test_fuzzer_tools_learning () =
  let healer = short_run ~tool:Fuzzer.Healer () in
  Alcotest.(check bool) "healer learns relations" true
    (Fuzzer.relation_count healer > 0);
  Alcotest.(check bool) "healer exposes a table" true
    (Fuzzer.relations healer <> None);
  let minus = short_run ~tool:Fuzzer.Healer_minus () in
  Alcotest.(check int) "healer- has no relations" 0 (Fuzzer.relation_count minus);
  let syzk = short_run ~tool:Fuzzer.Syzkaller () in
  Alcotest.(check bool) "syzkaller has no relation table" true
    (Fuzzer.relations syzk = None)

let test_fuzzer_moonshine_seeds () =
  (* Moonshine starts from the distilled corpus; the others start
     empty, so at time ~0 moonshine's corpus is already populated. *)
  let moon = short_run ~tool:Fuzzer.Moonshine ~minutes:1.0 () in
  let syzk = short_run ~tool:Fuzzer.Syzkaller ~minutes:1.0 () in
  Alcotest.(check bool) "moonshine pre-seeded" true
    (Corpus.size (Fuzzer.corpus moon) > Corpus.size (Fuzzer.corpus syzk))

let test_fuzzer_finds_shallow_bug () =
  (* Any tool should find the depth-2 tcp_disconnect within a few
     virtual hours. *)
  let f = short_run ~tool:Fuzzer.Healer ~minutes:240.0 () in
  Alcotest.(check bool) "found some crash" true
    (Triage.unique_count (Fuzzer.triage f) > 0)

let test_fuzzer_deterministic () =
  let a = short_run ~minutes:10.0 () and b = short_run ~minutes:10.0 () in
  Alcotest.(check int) "same coverage" (Fuzzer.coverage a) (Fuzzer.coverage b);
  Alcotest.(check int) "same execs" (Fuzzer.execs a) (Fuzzer.execs b)

(* ---- campaign ---- *)

let test_campaign_run_one () =
  let run = Campaign.run_one ~hours:0.5 ~seed:2 ~tool:Fuzzer.Healer
      ~version:K.Version.V5_11 () in
  Alcotest.(check bool) "coverage" true (run.Campaign.final_cov > 0);
  Alcotest.(check bool) "samples" true (List.length run.Campaign.samples >= 29);
  Alcotest.(check int) "corpus lengths match size"
    run.Campaign.corpus_size
    (List.length run.Campaign.corpus_lengths)

let test_campaign_math () =
  let mk cov samples =
    {
      Campaign.tool = Fuzzer.Healer;
      version = K.Version.V5_11;
      seed = 1;
      hours = 1.0;
      final_cov = cov;
      samples;
      corpus_size = 0;
      corpus_lengths = [];
      relations = 0;
      crashes = [];
      relation_snapshots = [];
      execs = 0;
    }
  in
  let base = mk 100 [ (60.0, 50); (120.0, 100) ] in
  let subject = mk 130 [ (60.0, 100); (120.0, 130) ] in
  Alcotest.(check (float 1e-9)) "improvement" 30.0
    (Campaign.improvement_pct ~base subject);
  Alcotest.(check (option (float 1e-9))) "time to coverage" (Some 60.0)
    (Campaign.time_to_coverage subject 100);
  Alcotest.(check (option (float 1e-9))) "speedup" (Some 60.0)
    (Campaign.speedup ~base subject);
  Alcotest.(check (option (float 1e-9))) "unreachable" None
    (Campaign.speedup ~base:subject base)

let test_campaign_average_series () =
  let mk samples =
    {
      Campaign.tool = Fuzzer.Healer;
      version = K.Version.V5_11;
      seed = 1;
      hours = 1.0;
      final_cov = 0;
      samples;
      corpus_size = 0;
      corpus_lengths = [];
      relations = 0;
      crashes = [];
      relation_snapshots = [];
      execs = 0;
    }
  in
  let avg =
    Campaign.average_series
      [ mk [ (60.0, 10); (120.0, 20) ]; mk [ (60.0, 30); (120.0, 40) ] ]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "pointwise mean"
    [ (60.0, 20.0); (120.0, 30.0) ]
    avg

let test_fuzzer_ablation_flags () =
  (* The ablation hooks really disable their stages. *)
  let no_dyn =
    Fuzzer.create
      (Fuzzer.config ~seed:3 ~use_dynamic_learning:false ~tool:Fuzzer.Healer
         ~version:K.Version.V5_11 ())
  in
  Fuzzer.run_until no_dyn 1800.0;
  let static_count =
    Relation_table.count (Static_learning.initial_table (Fuzzer.target no_dyn))
  in
  Alcotest.(check int) "no dynamic => static only" static_count
    (Fuzzer.relation_count no_dyn);
  let no_static =
    Fuzzer.create
      (Fuzzer.config ~seed:3 ~use_static_learning:false ~tool:Fuzzer.Healer
         ~version:K.Version.V5_11 ())
  in
  Alcotest.(check int) "no static => empty at boot" 0
    (Fuzzer.relation_count no_static)

let test_fuzzer_fixed_alpha_stays () =
  let f =
    Fuzzer.create
      (Fuzzer.config ~seed:3 ~fixed_alpha:0.9 ~tool:Fuzzer.Healer
         ~version:K.Version.V5_11 ())
  in
  Fuzzer.run_until f 3600.0;
  Alcotest.(check (float 1e-9)) "alpha pinned" 0.9 (Fuzzer.alpha_value f)

(* Digest of a campaign's whole observable outcome: executions, the
   coverage bitset, corpus encodings, relation edges and crash keys. *)
let campaign_digest tool =
  let f =
    Fuzzer.create (Fuzzer.config ~seed:1 ~tool ~version:K.Version.V5_11 ())
  in
  Fuzzer.run_until f 7200.0;
  let b = Buffer.create 4096 in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  add (string_of_int (Fuzzer.execs f));
  List.iter (fun i -> add (string_of_int i))
    (Healer_util.Bitset.elements (Fuzzer.coverage_set f));
  Corpus.iter (fun p -> add (Healer_executor.Serializer.encode p)) (Fuzzer.corpus f);
  (match Fuzzer.relations f with
  | None -> add "none"
  | Some r ->
    List.iter (fun (i, j) -> add (Printf.sprintf "%d,%d" i j)) (Relation_table.edges r));
  List.iter (fun (r : Triage.record) -> add r.bug_key) (Triage.records (Fuzzer.triage f));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The fixed-seed campaigns pinned: seed 1, kernel 5.11, 2 virtual
   hours. A change to these values is a change to the RNG stream or to
   campaign behaviour; make it deliberately and log it in CHANGES.md. *)
let test_campaign_fingerprint () =
  Alcotest.(check string) "healer" "fb294551c5d58ea8fa337c4adf01a796"
    (campaign_digest Fuzzer.Healer);
  Alcotest.(check string) "syzkaller" "3a7294fc0b9b45abacc63de63a8f223d"
    (campaign_digest Fuzzer.Syzkaller)

let suite =
  [
    case "symbolize full catalog" test_symbolize_all_catalog;
    case "symbolize rejects noise" test_symbolize_rejects_noise;
    case "triage dedup + minimize" test_triage_dedup_and_minimize;
    case "triage distinct bugs" test_triage_distinct_bugs;
    case "fuzzer progresses" test_fuzzer_progresses;
    case "fuzzer samples monotone" test_fuzzer_samples_monotone;
    case "fuzzer learning per tool" test_fuzzer_tools_learning;
    case "fuzzer moonshine seeds" test_fuzzer_moonshine_seeds;
    case "fuzzer finds shallow bug" test_fuzzer_finds_shallow_bug;
    case "fuzzer deterministic" test_fuzzer_deterministic;
    case "campaign fingerprint pinned" test_campaign_fingerprint;
    case "campaign run_one" test_campaign_run_one;
    case "campaign math" test_campaign_math;
    case "campaign average series" test_campaign_average_series;
    case "fuzzer ablation flags" test_fuzzer_ablation_flags;
    case "fuzzer fixed alpha" test_fuzzer_fixed_alpha_stays;
  ]
