open Perfbench
module Fuzzer = Healer_core.Fuzzer
module Version = Healer_kernel.Version

let feq = Alcotest.float 1e-9

(* A clock that returns the scripted instants in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
      q := rest;
      t
    | [] -> Alcotest.fail "clock read more often than scripted"

let test_self_time () =
  (* root [0,10] > a [1,7] > b [2,5]; then a second a [8,9]. *)
  let sp = Span.create ~clock:(scripted [ 0.; 1.; 2.; 5.; 7.; 8.; 9.; 10. ]) 3 in
  let root = 0 and a = 1 and b = 2 in
  Span.span sp root (fun () ->
      Span.span sp a (fun () -> Span.span sp b ignore);
      Span.span sp a ignore);
  Alcotest.(check int) "a calls" 2 (Span.calls sp a);
  Alcotest.check feq "b self" 3.0 (Span.self sp b);
  Alcotest.check feq "a total" 7.0 (Span.total sp a);
  Alcotest.check feq "a self excludes b" 4.0 (Span.self sp a);
  Alcotest.check feq "root self excludes a" 3.0 (Span.self sp root);
  Alcotest.check feq "attributed" 0.7 (Span.attributed sp ~root)

let test_span_exception () =
  let sp = Span.create ~clock:(scripted [ 0.; 1.; 3.; 4. ]) 2 in
  Span.span sp 0 (fun () ->
      try Span.span sp 1 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.check feq "closed on raise" 2.0 (Span.self sp 1);
  Alcotest.check feq "parent" 2.0 (Span.self sp 0)

let test_percentile_rule () =
  let check n want =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) want
      (Stats.highest_percentile n)
  in
  check 8 None;
  check 39 None;
  check 40 (Some 75.0);
  check 100 (Some 90.0);
  check 999 (Some 95.0);
  check 1000 (Some 99.0);
  check 10_000 (Some 99.9);
  List.iter
    (fun n ->
      match Stats.highest_percentile n with
      | Some p ->
        Alcotest.(check bool) "ten beyond" true (Stats.beyond n p >= 10)
      | None -> ())
    [ 40; 57; 100; 250; 999; 1000; 4321; 10_000 ];
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p90 nearest rank" 90.0 (Stats.percentile xs 90.0);
  Alcotest.check feq "median even" 50.5 (Stats.median xs)

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "q2" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3

let test_normalize () =
  let result metrics =
    { Bench.seed = 1; metrics; fp = []; failures = []; fronts = [] }
  in
  let calib w c = result [ ("calib_wall_s", w); ("calib_cpu_s", c) ] in
  let k = Bench.calib_nominal_s in
  (* The host ran at half the nominal speed, then at a third of it. *)
  let r =
    Bench.normalize ~before:(calib (2.0 *. k) (2.0 *. k)) ~after:(calib (4.0 *. k) (2.0 *. k))
      (result [ ("wall_s", 6.0); ("cpu_s", 4.0); ("setup_s", 0.3); ("coverage", 7.0) ])
  in
  let get m = List.assoc m r.metrics in
  Alcotest.check feq "wall by calibration wall" 2.0 (get "wall_s");
  Alcotest.check feq "setup by calibration wall" 0.1 (get "setup_s");
  Alcotest.check feq "cpu by calibration cpu" 2.0 (get "cpu_s");
  Alcotest.check feq "counts untouched" 7.0 (get "coverage")

let short_fuzz tool seed =
  let f = Fuzzer.create (Fuzzer.config ~seed ~tool ~version:Version.V5_11 ()) in
  Fuzzer.run_until f 180.0;
  Fingerprint.fuzz ~execs:(Fuzzer.execs f) ~coverage:(Fuzzer.coverage_set f)
    ~corpus:(Fuzzer.corpus f) ~relations:(Fuzzer.relations f) ~triage:(Fuzzer.triage f)

let short_traced tool seed =
  let tr = Replica.tracer () in
  let cfg = Fuzzer.config ~seed ~tool ~version:Version.V5_11 () in
  Replica.fingerprint (Replica.fuzz_campaign tr cfg ~hours:(180.0 /. 3600.0))

let test_fingerprint_seed () =
  let a = short_fuzz Fuzzer.Healer 3 in
  Alcotest.(check (option string)) "same seed" None
    (Fingerprint.diverged a (short_fuzz Fuzzer.Healer 3));
  Alcotest.(check bool) "different seed" true
    (Fingerprint.diverged a (short_fuzz Fuzzer.Healer 4) <> None);
  Alcotest.(check (option string)) "names the field" (Some "corpus")
    (Fingerprint.diverged a
       (List.map (fun (k, v) -> if k = "corpus" then (k, "x") else (k, v)) a))

let test_replica_fidelity () =
  List.iter
    (fun tool ->
      Alcotest.(check (option string)) (Fuzzer.tool_name tool) None
        (Fingerprint.diverged (short_fuzz tool 5) (short_traced tool 5)))
    [ Fuzzer.Healer; Fuzzer.Syzkaller ]

let test_replica_serve () =
  let cfg =
    { (Child.serve_config ~seed:11) with epochs = 3; slice = 0.04 *. 3600.0 }
  in
  let dir = "perfbench-test-ck" in
  let o =
    Healer_service.Coordinator.run ~forked:false (Healer_service.Coordinator.initial cfg)
  in
  let ck = Replica.serve_campaign (Replica.tracer ()) cfg ~dir in
  Alcotest.(check string) "digest"
    (Healer_service.Shard_state.digest o.final.state)
    (Healer_service.Shard_state.digest ck.state)

let test_metric_names () =
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) s ok (Metric.valid_name s))
    [
      ("wall_s", true); ("exec.us_per_call", true); ("3way-x", true);
      ("", false); ("_x", false); (".x", false); ("a b", false); ("a/b", false);
      ("é", false); (String.make 64 'a', true); (String.make 65 'a', false);
    ];
  let names = List.map fst (Metric.end_to_end @ Metric.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) n true (Metric.valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "setup_s reported" true
    (List.mem_assoc "setup_s" Metric.end_to_end)

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "span self time nests" `Quick test_self_time;
          Alcotest.test_case "span closes on raise" `Quick test_span_exception;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "host-speed normalisation" `Quick test_normalize;
          Alcotest.test_case "fingerprint by seed" `Quick test_fingerprint_seed;
          Alcotest.test_case "replica reproduces fuzzer" `Quick test_replica_fidelity;
          Alcotest.test_case "replica reproduces serve" `Quick test_replica_serve;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
    ]
