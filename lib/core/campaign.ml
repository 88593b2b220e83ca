module Version = Healer_kernel.Version

type run = {
  tool : Fuzzer.tool;
  version : Version.t;
  seed : int;
  hours : float;
  final_cov : int;
  samples : (float * int) list;
  corpus_size : int;
  corpus_lengths : int list;
  relations : int;
  crashes : Triage.record list;
  relation_snapshots : (float * (int * int) list) list;
  execs : int;
}

let run_one ?(hours = 24.0) ?(seed = 1) ~tool ~version () =
  let cfg = Fuzzer.config ~seed ~tool ~version () in
  let f = Fuzzer.create cfg in
  Fuzzer.run_until f (hours *. 3600.0);
  {
    tool;
    version;
    seed;
    hours;
    final_cov = Fuzzer.coverage f;
    samples = Fuzzer.samples f;
    corpus_size = Corpus.size (Fuzzer.corpus f);
    corpus_lengths = Corpus.lengths (Fuzzer.corpus f);
    relations = Fuzzer.relation_count f;
    crashes = Triage.records (Fuzzer.triage f);
    relation_snapshots = Fuzzer.relation_snapshots f;
    execs = Fuzzer.execs f;
  }

(* ---- parallel campaign matrix ---- *)

let run_matrix ?(jobs = Domain.recommended_domain_count ()) specs =
  if jobs < 1 then invalid_arg "Campaign.run_matrix: jobs must be positive";
  let jobs = min jobs (max 1 (List.length specs)) in
  (* Campaigns only read the process-global kernel tables; settle them
     all before any worker domain exists. *)
  Healer_kernel.Kernel.force_init ();
  let one (tool, version, seed, hours) = run_one ~hours ~seed ~tool ~version () in
  if jobs = 1 then List.map one specs
  else
    Healer_util.Domain_pool.with_pool ~jobs (fun pool ->
        Healer_util.Domain_pool.map pool one specs)

let improvement_pct ~base subject =
  Healer_util.Statx.pct (float_of_int base.final_cov) (float_of_int subject.final_cov)

let time_to_coverage run level =
  let rec go = function
    | [] -> None
    | (t, cov) :: rest -> if cov >= level then Some t else go rest
  in
  go run.samples

let speedup ~base subject =
  match time_to_coverage subject base.final_cov with
  | Some t when t > 0.0 -> Some (base.hours *. 3600.0 /. t)
  | Some _ | None -> None

type comparison = {
  version : Version.t;
  rounds : int;
  min_impr : float;
  max_impr : float;
  avg_impr : float;
  avg_speedup : float option;
}

let compare_tools ?jobs ?(hours = 24.0) ~rounds ~subject ~base version =
  if rounds <= 0 then invalid_arg "Campaign.compare_tools: rounds must be positive";
  let specs =
    List.concat_map
      (fun round ->
        let seed = round + 1 in
        [ (base, version, seed, hours); (subject, version, seed, hours) ])
      (List.init rounds Fun.id)
  in
  let rec pair_up = function
    | b :: s :: rest -> (b, s) :: pair_up rest
    | [ _ ] | [] -> []
  in
  let pairs = pair_up (run_matrix ?jobs specs) in
  let imprs = List.map (fun (b, s) -> improvement_pct ~base:b s) pairs in
  let speedups = List.filter_map (fun (b, s) -> speedup ~base:b s) pairs in
  {
    version;
    rounds;
    min_impr = Healer_util.Statx.minimum imprs;
    max_impr = Healer_util.Statx.maximum imprs;
    avg_impr = Healer_util.Statx.mean imprs;
    avg_speedup =
      (if speedups = [] then None else Some (Healer_util.Statx.mean speedups));
  }

(* For each query time, the value carried is the last sample at or
   before it. Both lists ascend, so one synchronized pass per run
   replaces the per-query rescan of the whole sample list. *)
let series_at ~times samples =
  let out = Array.make (Array.length times) 0.0 in
  let rec go i last samples =
    if i < Array.length times then
      match samples with
      | (t', cov) :: rest when t' <= times.(i) -> go i (float_of_int cov) rest
      | _ ->
        out.(i) <- last;
        go (i + 1) last samples
  in
  go 0 0.0 samples;
  out

let average_series runs =
  match runs with
  | [] -> []
  | first :: _ ->
    let times = Array.of_list (List.map fst first.samples) in
    let per_run = List.map (fun run -> series_at ~times run.samples) runs in
    let n = float_of_int (List.length runs) in
    List.mapi
      (fun i t ->
        (t, List.fold_left (fun acc s -> acc +. s.(i)) 0.0 per_run /. n))
      (Array.to_list times)

let merge_crashes runs =
  Triage.merge_records_by
    ~key:(fun r -> r.Triage.bug_key)
    (List.map (fun run -> run.crashes) runs)
