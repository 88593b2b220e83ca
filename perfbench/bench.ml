(* The benchmark driver: runs whole campaigns, one fresh process each,
   for [seconds], checks their outputs, and prints one JSON result
   line. See perfbench/README.md for the workloads and metrics. *)

module Rng = Healer_util.Rng
module Fuzzer = Healer_core.Fuzzer

let workloads =
  [
    ("fuzz-healer", Child.Fuzz Fuzzer.Healer);
    ("fuzz-syzkaller", Child.Fuzz Fuzzer.Syzkaller);
    ("serve-j2", Child.Serve);
  ]

(* Distinct campaign seeds per run. Every run completes at least one
   campaign per seed, so the per-seed outcome metrics (coverage,
   crashes, allocation) average over a fixed input set; the rest of
   the time budget repeats them, which both adds timing samples and
   checks that a repeated seed reproduces its campaign exactly. *)
let seeds_per_run = 12

let campaign_seeds seed =
  let rng = Rng.create seed in
  List.init seeds_per_run (fun _ -> 1 + Rng.int rng 1_000_000)

(* {2 Child processes} *)

type result = {
  seed : int;
  metrics : (string * float) list;
  fp : Fingerprint.t;
  failures : string list;  (* failed checks, by name and detail *)
  fronts : float list;
}

let tmp_root = ".perfbench_tmp"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The campaign must not see the developer toggles it would otherwise
   inherit: the benchmark measures the defaults. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"HEALER_" kv))
  |> Array.of_list

let read_all fd =
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let parse ~seed lines =
  let r = { seed; metrics = []; fp = []; failures = []; fronts = [] } in
  let r =
    List.fold_left
      (fun r line ->
        match String.split_on_char ' ' line with
        | [ "metric"; name; v ] ->
          { r with metrics = (name, float_of_string v) :: r.metrics }
        | [ "fp"; field; v ] -> { r with fp = (field, v) :: r.fp }
        | "check" :: _ :: "ok" :: _ -> r
        | "check" :: name :: _ :: detail ->
          { r with failures = (name ^ ":" ^ String.concat " " detail) :: r.failures }
        | [ "front"; v ] -> { r with fronts = float_of_string v :: r.fronts }
        | _ -> { r with failures = ("unparsed:" ^ line) :: r.failures })
      r lines
  in
  { r with metrics = List.rev r.metrics; fp = List.rev r.fp }

let mode_arg = function
  | Child.Plain -> "plain"
  | Child.Inproc -> "inproc"
  | Child.Traced -> "traced"

let spawn_count = ref 0

(* Runs [main.exe args] in a fresh process and parses what it prints. *)
let spawn ~seed args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      (child_env ()) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let lines = read_all out_r in
  let _, status = Unix.waitpid [] pid in
  let r = parse ~seed lines in
  match status with
  | Unix.WEXITED 0 -> r
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    { r with failures = Printf.sprintf "exit:%d" n :: r.failures }

let run_child ~workload mode seed =
  incr spawn_count;
  let dir =
    Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !spawn_count)
  in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      spawn ~seed
        [ "child"; workload; mode_arg mode; string_of_int seed; Printf.sprintf "%.6f" t0; dir ])

let calibrate () = spawn ~seed:0 [ "calib" ]

let get r name = List.assoc_opt name r.metrics

(* {2 Aggregation} *)

let values name rs = List.filter_map (fun r -> get r name) rs

(* The first result per distinct seed: the per-seed outcome metrics
   are exact, so repeats add nothing to their mean. *)
let per_seed rs =
  List.fold_left
    (fun acc r ->
      if List.exists (fun a -> a.seed = r.seed) acc then acc else acc @ [ r ])
    [] rs

let median_of name rs = match values name rs with [] -> 0.0 | xs -> Stats.median xs
let mean_of name rs = match values name rs with [] -> 0.0 | xs -> Stats.mean xs

let describe name xs =
  let n = List.length xs in
  let med = Stats.median xs in
  let quart =
    if n < 2 then ""
    else
      let q1, _, q3 = Stats.quartiles xs in
      Printf.sprintf " q1=%.4g q3=%.4g" q1 q3
  in
  let tail =
    match Stats.highest_percentile n with
    | Some p -> Printf.sprintf " p%g=%.4g" p (Stats.percentile xs p)
    | None -> " (no percentile above the median has 10 samples beyond it)"
  in
  Printf.eprintf "  %-28s median=%.4g mean=%.4g%s n=%d%s\n" name med (Stats.mean xs)
    quart n tail

(* {2 Runs} *)

type run = {
  attempted : int;
  failed : int;
  notes : string list;
  metrics : (string * float) list;
}

(* Repeats of a seed must reproduce its first campaign exactly. *)
let determinism_failures rs =
  let firsts = per_seed rs in
  List.filter_map
    (fun r ->
      let first = List.find (fun a -> a.seed = r.seed) firsts in
      if first == r then None
      else
        match Fingerprint.diverged first.fp r.fp with
        | Some field ->
          Some (Printf.sprintf "seed %d: repeat diverged in %s" r.seed field)
        | None -> None)
    rs

let failures_of rs =
  List.concat_map
    (fun r -> List.map (fun f -> Printf.sprintf "seed %d: %s" r.seed f) r.failures)
    rs

(* Campaigns attempted: one per child, plus every shard-epoch of a
   sharded campaign. *)
let attempts ~workload rs =
  let per = match workload with Child.Serve -> 1 + (2 * 24) | Child.Fuzz _ -> 1 in
  per * List.length rs

let respawns rs =
  int_of_float (List.fold_left ( +. ) 0.0 (values "coordinator.respawns" rs))

(* Runs [f 0], [f 1], ... until [seconds] have passed since [start],
   and at least [min_rounds] times. *)
let until_deadline ~start ~seconds ~min_rounds f =
  let rec go i acc =
    if i >= min_rounds && Unix.gettimeofday () -. start >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let same ~what a b =
  match Fingerprint.diverged a.fp b.fp with
  | Some field -> [ Printf.sprintf "seed %d: %s differ in %s" b.seed what field ]
  | None -> []

let serve_digests ~forked ~inproc =
  same ~what:"forked and in-process serve" forked inproc

(* Serve campaigns also run in-process for this many campaign seeds:
   that run holds every shard's allocation in one process, which gives
   serve's [alloc_mwords], and the forked run must reach its digest. *)
let inproc_seeds = 6

(* {2 Host-speed normalisation} *)

(* The calibration's wall time on the host the baseline was measured
   on: campaign times are reported as if the host ran at that speed. *)
let calib_nominal_s = 0.3

(* A shared host changes speed by up to twofold over tens of seconds,
   and a campaign's raw times change with it. [normalize ~before ~after r]
   scales [r]'s times by the host speed that the calibrations just
   before and just after it measured: wall and set-up time by the
   calibrations' wall time, CPU time by their CPU time. *)
let normalize ~before ~after (r : result) =
  let scale m =
    match (get before m, get after m) with
    | Some a, Some b when a > 0.0 && b > 0.0 -> calib_nominal_s *. 2.0 /. (a +. b)
    | _ -> nan
  in
  let by = [ ("wall_s", "calib_wall_s"); ("setup_s", "calib_wall_s"); ("cpu_s", "calib_cpu_s") ] in
  let metrics =
    List.map
      (fun (m, v) ->
        match List.assoc_opt m by with Some c -> (m, v *. scale c) | None -> (m, v))
      r.metrics
  in
  { r with metrics }

let end_to_end ~name ~workload ~seeds ~seconds =
  let start = Unix.gettimeofday () in
  let seeds = Array.of_list seeds in
  let k = Array.length seeds in
  let inproc =
    match workload with
    | Child.Serve ->
      List.init inproc_seeds (fun i -> run_child ~workload:name Child.Inproc seeds.(i))
    | Child.Fuzz _ -> []
  in
  (* A calibration before the first campaign and after every one. *)
  let first_calib = calibrate () in
  let rounds =
    until_deadline ~start ~seconds ~min_rounds:k (fun i ->
        let r = run_child ~workload:name Child.Plain seeds.(i mod k) in
        (r, calibrate ()))
  in
  let plain = List.map fst rounds in
  let calibs = first_calib :: List.map snd rounds in
  let timed =
    List.mapi
      (fun i (r, after) -> normalize ~before:(List.nth calibs i) ~after r)
      rounds
  in
  let firsts = per_seed plain in
  let notes =
    failures_of (inproc @ plain)
    @ List.concat_map
        (fun c -> List.map (fun f -> "calibration: " ^ f) c.failures)
        calibs
    @ List.concat_map (same ~what:"calibration runs" first_calib) calibs
    @ determinism_failures plain
    @ List.concat_map
        (fun i ->
          serve_digests ~forked:(List.find (fun p -> p.seed = i.seed) firsts) ~inproc:i)
        inproc
  in
  Printf.eprintf "%s: %d campaigns over %d seeds\n" name (List.length plain) k;
  describe "calib_wall_s" (values "calib_wall_s" calibs);
  List.iter
    (fun m -> describe ("raw " ^ m) (values m plain))
    [ "wall_s"; "cpu_s"; "setup_s" ];
  List.iter (fun m -> describe m (values m timed)) [ "wall_s"; "cpu_s"; "setup_s" ];
  describe "peak_heap_mb" (values "peak_heap_mb" plain);
  let metrics =
    [
      ("wall_s", median_of "wall_s" timed);
      ("cpu_s", median_of "cpu_s" timed);
      ("setup_s", median_of "setup_s" timed);
      ("alloc_mwords", mean_of "alloc_mwords" (if inproc = [] then firsts else inproc));
      ("peak_heap_mb", median_of "peak_heap_mb" plain);
      ("coverage", mean_of "coverage" firsts);
      ("crashes", mean_of "crashes" firsts);
    ]
  in
  {
    attempted = attempts ~workload (plain @ inproc);
    failed = List.length notes + respawns plain;
    notes;
    metrics;
  }

let traced ~name ~workload ~seeds ~seconds =
  let seeds = Array.of_list seeds in
  let k = Array.length seeds in
  (* Per seed: the untraced campaign, then the traced rebuild. For
     serve the traced run rebuilds the in-process schedule, so that
     runs too, and is the untraced counterpart of the traced run. *)
  let rounds =
    until_deadline ~start:(Unix.gettimeofday ()) ~seconds ~min_rounds:1 (fun i ->
        let seed = seeds.(i mod k) in
        let plain = run_child ~workload:name Child.Plain seed in
        let base =
          match workload with
          | Child.Serve -> run_child ~workload:name Child.Inproc seed
          | Child.Fuzz _ -> plain
        in
        (plain, base, run_child ~workload:name Child.Traced seed))
  in
  let plain = List.map (fun (p, _, _) -> p) rounds in
  let base = List.map (fun (_, b, _) -> b) rounds in
  let traced = List.map (fun (_, _, t) -> t) rounds in
  let inproc = match workload with Child.Serve -> base | Child.Fuzz _ -> [] in
  (* The fidelity gate: a traced campaign that does not reproduce its
     untraced counterpart invalidates the per-layer numbers. *)
  let notes =
    failures_of (plain @ inproc @ traced)
    @ List.concat_map
        (fun (p, b, t) ->
          (if p == b then [] else serve_digests ~forked:p ~inproc:b)
          @ same ~what:"traced and untraced runs" b t)
        rounds
  in
  let fronts = List.concat_map (fun r -> r.fronts) plain in
  if fronts <> [] then describe "coordinator.front_s" fronts;
  describe "trace.attributed_ratio" (values "trace.attributed_ratio" traced);
  let attempted = attempts ~workload (plain @ inproc @ traced) in
  let failed = List.length notes + respawns plain in
  let per_exec =
    List.filter_map
      (fun r ->
        match (get r "alloc_mwords", get r "execs") with
        | Some a, Some e when e > 0.0 -> Some (a *. 1e6 /. e)
        | _ -> None)
      base
  in
  let overhead =
    List.map2
      (fun b t ->
        Option.value (get t "wall_s") ~default:0.0
        -. Option.value (get b "wall_s") ~default:0.0)
      base traced
  in
  let median_or_zero = function [] -> 0.0 | l -> Stats.median l in
  let untraced =
    [
      ("gc.minor", median_of "gc.minor" base);
      ("gc.major", median_of "gc.major" base);
      ("alloc.words_per_exec", median_or_zero per_exec);
      ("relations", median_of "relations" plain);
      ("wire.bytes_sent", median_of "wire.bytes_sent" plain);
      ("wire.bytes_recv", median_of "wire.bytes_recv" plain);
      ("wire.frames", median_of "wire.frames" plain);
      ("coordinator.front_s_p50", median_or_zero fronts);
      ("coordinator.front_s_max", List.fold_left Float.max 0.0 fronts);
      ("coordinator.respawns", float_of_int (respawns plain));
      ("error_rate", float_of_int failed /. float_of_int attempted);
      ("trace.overhead_s", Stats.median overhead);
    ]
  in
  let metrics =
    List.map
      (fun (m, _) ->
        match List.assoc_opt m untraced with
        | Some v -> (m, v)
        | None -> (m, median_of m traced))
      Metric.per_layer
  in
  { attempted; failed; notes; metrics }

(* {2 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct (r : run) units =
  let metrics =
    List.map
      (fun (name, unit) ->
        if not (Metric.valid_name name) then invalid_arg ("metric name " ^ name);
        let v = Option.value (List.assoc_opt name r.metrics) ~default:0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed (String.concat ", " metrics)

let main ~workload:name ~seed ~seconds ~trace =
  match List.assoc_opt name workloads with
  | None ->
    Printf.eprintf "unknown workload %s (known: %s)\n" name
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some workload ->
    let seeds = campaign_seeds seed in
    let r =
      Fun.protect
        ~finally:(fun () -> try Sys.rmdir tmp_root with Sys_error _ -> ())
        (fun () ->
          if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
          if trace then traced ~name ~workload ~seeds ~seconds
          else end_to_end ~name ~workload ~seeds ~seconds)
    in
    List.iter (fun n -> Printf.eprintf "FAILED %s\n" n) r.notes;
    print_result ~correct:(r.notes = []) r
      (if trace then Metric.per_layer else Metric.end_to_end)
