(* The traced campaign: [Fuzzer.create]/[Fuzzer.step] and the
   in-process lag-2 schedule of [Coordinator.run ~forked:false],
   rebuilt call for call from the layers' public functions so that
   each call can be wrapped in a span. The rebuild must consume the
   RNG stream exactly as the program does; the fidelity gate in
   [Bench] compares its fingerprint with the untraced campaign's and
   marks the per-layer numbers invalid on any difference. *)

module Rng = Healer_util.Rng
module Vclock = Healer_util.Vclock
module Bitset = Healer_util.Bitset
module Target = Healer_syzlang.Target
module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Pool = Healer_executor.Pool
module Kernel = Healer_kernel.Kernel
open Healer_core
open Healer_service

(* Span layers. [L.campaign] is the root: its self time is the part of
   the campaign no layer span covers. *)
module L = struct
  let campaign = 0
  let select = 1
  let choice_table = 2
  let gen = 3
  let mutate = 4
  let corpus = 5
  let exec_main = 6
  let exec_probe = 7
  let feedback = 8
  let minimize = 9
  let dynlearn = 10
  let triage = 11
  let alpha = 12
  let worker_setup = 13
  let worker_replay = 14
  let worker_fuzz = 15
  let worker_harvest = 16
  let shard_apply = 17
  let shard_diff = 18
  let shard_encode = 19
  let ck_encode = 20
  let ck_save = 21
end

let n_layers = 22

(* Work counts taken at the same boundaries as the spans. *)
type counters = {
  mutable interesting : int;
  mutable minimize_probes : int;
  mutable dynlearn_probes : int;
  mutable triage_probes : int;
  mutable learned : int;
  mutable unique_crashes : int;
  mutable replay_execs : int;
  mutable fuzz_execs : int;
  mutable idle_epochs : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable checkpoint_bytes : int;
}

let counters () =
  {
    interesting = 0;
    minimize_probes = 0;
    dynlearn_probes = 0;
    triage_probes = 0;
    learned = 0;
    unique_crashes = 0;
    replay_execs = 0;
    fuzz_execs = 0;
    idle_epochs = 0;
    cache_hits = 0;
    cache_misses = 0;
    checkpoint_bytes = 0;
  }

type tracer = { sp : Span.t; c : counters }

let tracer () = { sp = Span.create n_layers; c = counters () }
let span tr layer f = Span.span tr.sp layer f

(* {2 Fuzzer} *)

(* Private to [Fuzzer]; the fidelity gate catches a drift. *)
let features_of = function
  | Fuzzer.Healer | Fuzzer.Healer_minus -> [ "fault_injection" ]
  | Fuzzer.Syzkaller | Fuzzer.Moonshine -> [ "usb" ]

let mutation_decay = 0.995
let alpha_window = 1024

type fuzzer = {
  tr : tracer;
  cfg : Fuzzer.config;
  tgt : Target.t;
  rng : Rng.t;
  clock : Vclock.t;
  pool : Pool.t;
  costs : Fuzzer.costs;
  fb : Feedback.t;
  corp : Corpus.t;
  mutable tri : Triage.t;
  rel : Relation_table.t option;
  choice : Choice_table.t option;
  alpha_st : Alpha.t;
  mutable n_execs : int;
  mutable used_table : bool;
  mutable mutation_gain : float;
}

let charge t prog (r : Exec.run_result) =
  Vclock.advance t.clock
    (t.costs.exec_overhead
    +. (t.costs.per_call *. float_of_int (Prog.length prog))
    +. match r.crash with Some _ -> t.costs.crash_reboot | None -> 0.0);
  t.n_execs <- t.n_execs + 1;
  r

let exec_prog t ?fault_call prog =
  charge t prog (span t.tr L.exec_main (fun () -> Pool.run t.pool ?fault_call prog))

let exec_probe t count prog =
  count ();
  charge t prog (span t.tr L.exec_probe (fun () -> Pool.run_probe t.pool prog))

let total_new new_cov = Array.fold_left (fun a l -> a + List.length l) 0 new_cov

let note_corpus t prog =
  Option.iter
    (fun ct ->
      span t.tr L.choice_table (fun () -> Choice_table.note_corpus_program ct prog))
    t.choice

let create tr ?initial_relations ?(initial_seeds = []) (cfg : Fuzzer.config) =
  let t =
    span tr L.worker_setup (fun () ->
        let tgt = Kernel.target () in
        let pool =
          Pool.create ~features:(features_of cfg.tool) ?exec_cache:cfg.exec_cache
            ~version:cfg.version ~size:cfg.vms ()
        in
        let rel =
          match cfg.tool with
          | Fuzzer.Healer ->
            Some
              (if cfg.use_static_learning then Static_learning.initial_table tgt
               else Relation_table.create (Target.n_syscalls tgt))
          | Fuzzer.Healer_minus | Fuzzer.Syzkaller | Fuzzer.Moonshine -> None
        in
        let choice =
          match cfg.tool with
          | Fuzzer.Syzkaller | Fuzzer.Moonshine -> Some (Choice_table.create tgt)
          | Fuzzer.Healer | Fuzzer.Healer_minus -> None
        in
        let t =
          {
            tr;
            cfg;
            tgt;
            rng = Rng.create cfg.seed;
            clock = Vclock.create ();
            pool;
            costs =
              (match cfg.costs with Some c -> c | None -> Fuzzer.default_costs cfg.tool);
            fb = Feedback.create ();
            corp = Corpus.create tgt;
            tri = Triage.create ~exec:(fun _ -> assert false);
            rel;
            choice;
            alpha_st =
              Alpha.create ?init:cfg.fixed_alpha
                ~window:(if cfg.fixed_alpha = None then alpha_window else max_int)
                ();
            n_execs = 0;
            used_table = false;
            mutation_gain = 0.5;
          }
        in
        let count () = tr.c.triage_probes <- tr.c.triage_probes + 1 in
        t.tri <- Triage.create ~exec:(exec_probe t count);
        (match (t.rel, initial_relations) with
        | Some table, Some saved -> ignore (Relation_table.merge_into ~dst:table saved)
        | _ -> ());
        t)
  in
  let seeds =
    (if cfg.tool = Fuzzer.Moonshine then Seeds.distilled t.tgt else []) @ initial_seeds
  in
  span tr L.worker_replay (fun () ->
      List.iter
        (fun seed ->
          let r = exec_prog t seed in
          let added =
            span tr L.feedback (fun () ->
                let new_cov = Feedback.process t.fb r in
                if r.crash = None && Feedback.is_interesting new_cov then
                  Some (total_new new_cov)
                else None)
          in
          match added with
          | Some n ->
            if span tr L.corpus (fun () -> Corpus.add t.corp seed ~new_blocks:n) then
              note_corpus t seed
          | None -> ())
        seeds);
  tr.c.replay_execs <- tr.c.replay_execs + t.n_execs;
  t

let rec last_opt = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: tl -> last_opt tl

let select_fn t ~sub =
  match t.cfg.tool with
  | Fuzzer.Healer -> (
    match t.rel with
    | Some table ->
      let o =
        span t.tr L.select (fun () ->
            Select.select t.rng table ~alpha:(Alpha.value t.alpha_st) ~sub)
      in
      if o.Select.used_table then t.used_table <- true;
      o.Select.id
    | None -> Rng.int t.rng (Target.n_syscalls t.tgt))
  | Fuzzer.Healer_minus -> Rng.int t.rng (Target.n_syscalls t.tgt)
  | Fuzzer.Syzkaller | Fuzzer.Moonshine -> (
    match t.choice with
    | Some ct ->
      span t.tr L.choice_table (fun () ->
          Choice_table.select t.rng ct ~bias:(last_opt sub))
    | None -> Rng.int t.rng (Target.n_syscalls t.tgt))

let gen_probability t =
  min 0.9 (t.cfg.gen_ratio *. (1.0 +. (3.0 *. (1.0 -. t.mutation_gain))))

let generate t =
  span t.tr L.gen (fun () -> Gen.generate t.rng t.tgt ~select:(select_fn t) ())

let build_test_case t =
  if Corpus.is_empty t.corp || Rng.chance t.rng (gen_probability t) then
    (`Generated, generate t)
  else
    match span t.tr L.corpus (fun () -> Corpus.pick t.rng t.corp) with
    | Some seed ->
      ( `Mutated,
        span t.tr L.mutate (fun () ->
            Mutate.mutate t.rng t.tgt ~select:(select_fn t) seed) )
    | None -> (`Generated, generate t)

let step t =
  let tr = t.tr in
  t.used_table <- false;
  let origin, prog = build_test_case t in
  if Prog.length prog > 0 then begin
    let fault_call =
      if
        t.cfg.fault_rate > 0.0
        && List.mem "fault_injection" (features_of t.cfg.tool)
        && Rng.chance t.rng t.cfg.fault_rate
      then Some (Rng.int t.rng (Prog.length prog))
      else None
    in
    let r = exec_prog t ?fault_call prog in
    match r.crash with
    | Some report ->
      let vtime = Vclock.now t.clock in
      if span tr L.triage (fun () -> Triage.on_crash t.tri ~vtime prog report) then
        tr.c.unique_crashes <- tr.c.unique_crashes + 1;
      span tr L.feedback (fun () -> ignore (Feedback.process t.fb r))
    | None ->
      let new_cov, interesting, pc =
        span tr L.feedback (fun () ->
            let new_cov = Feedback.process t.fb r in
            let interesting = Feedback.is_interesting new_cov in
            let pc =
              if interesting then Some (Prog_cov.of_run prog r ~new_cov) else None
            in
            (new_cov, interesting, pc))
      in
      (match pc with
      | Some pc ->
        tr.c.interesting <- tr.c.interesting + 1;
        let count () = tr.c.minimize_probes <- tr.c.minimize_probes + 1 in
        let minimized =
          span tr L.minimize (fun () ->
              Minimize.minimize ~target:t.tgt ~exec:(exec_probe t count) pc)
        in
        (match (t.cfg.tool, t.rel) with
        | Fuzzer.Healer, Some table when t.cfg.use_dynamic_learning ->
          let count () = tr.c.dynlearn_probes <- tr.c.dynlearn_probes + 1 in
          let learned =
            span tr L.dynlearn (fun () ->
                Dynamic_learning.learn ~exec:(exec_probe t count) ~table minimized)
          in
          tr.c.learned <- tr.c.learned + List.length learned
        | _ -> ());
        let n = total_new new_cov in
        List.iter
          (fun (m : Prog_cov.t) ->
            let len = Prog_cov.length m in
            let completed = len > 0 && Prog_cov.call_cov m (len - 1) <> [] in
            if
              completed
              && span tr L.corpus (fun () -> Corpus.add t.corp m.prog ~new_blocks:n)
            then note_corpus t m.prog)
          minimized
      | None -> ());
      (match origin with
      | `Mutated ->
        let hit = if interesting then 1.0 else 0.0 in
        t.mutation_gain <-
          (mutation_decay *. t.mutation_gain) +. ((1.0 -. mutation_decay) *. hit)
      | `Generated -> ());
      if t.cfg.tool = Fuzzer.Healer then
        span tr L.alpha (fun () ->
            Alpha.record t.alpha_st ~used_table:t.used_table ~new_cov:interesting)
  end

let run_until t until =
  while Vclock.now t.clock < until do
    step t
  done

(* Folds the pool's probe-cache counters into the tracer; call once
   per fuzzer, when it is done. *)
let retire t =
  match Pool.cache_stats t.pool with
  | Some s ->
    t.tr.c.cache_hits <- t.tr.c.cache_hits + s.hits;
    t.tr.c.cache_misses <- t.tr.c.cache_misses + s.misses
  | None -> ()

let fingerprint t =
  Fingerprint.fuzz ~execs:t.n_execs ~coverage:(Feedback.seen t.fb) ~corpus:t.corp
    ~relations:t.rel ~triage:t.tri

let fuzz_campaign tr cfg ~hours =
  let t = create tr cfg in
  span tr L.campaign (fun () -> run_until t (Vclock.hours hours));
  retire t;
  tr.c.fuzz_execs <- tr.c.fuzz_execs + t.n_execs - tr.c.replay_execs;
  t

(* {2 Service} *)

(* [Worker.run_epoch] with its steps split into spans, plus the diff
   and encode a forked worker performs before shipping its delta. *)
let run_epoch tr (cfg : Checkpoint.config) ~shard ~epoch (g : Shard_state.t) =
  let fcfg =
    Fuzzer.config ~seed:(Worker.seed_for cfg ~shard ~epoch) ~tool:cfg.tool
      ~version:cfg.version ()
  in
  let initial_relations =
    if Relation_table.count g.relations > 0 then Some g.relations else None
  in
  let replayed = tr.c.replay_execs in
  let f = create tr ?initial_relations ~initial_seeds:(List.map snd g.corpus) fcfg in
  let replay_execs = tr.c.replay_execs - replayed in
  if Vclock.now f.clock >= cfg.slice then tr.c.idle_epochs <- tr.c.idle_epochs + 1;
  span tr L.worker_fuzz (fun () -> run_until f cfg.slice);
  retire f;
  tr.c.fuzz_execs <- tr.c.fuzz_execs + f.n_execs - replay_execs;
  let outcome =
    span tr L.worker_harvest (fun () ->
        let epoch_start = float_of_int epoch *. cfg.slice in
        let progs = ref [] in
        Corpus.iter (fun p -> progs := (Shard_state.corpus_key p, p) :: !progs) f.corp;
        {
          Shard_state.n_syscalls = g.n_syscalls;
          relations =
            (match f.rel with
            | Some r -> Relation_table.copy r
            | None -> Relation_table.create g.n_syscalls);
          coverage = Bitset.copy (Feedback.seen f.fb);
          corpus = !progs;
          crashes =
            List.map
              (fun (r : Triage.record) ->
                { r with first_found = r.first_found +. epoch_start })
              (Triage.records f.tri);
          execs = [];
        })
  in
  let outcome = span tr L.shard_diff (fun () -> Shard_state.diff ~since:g outcome) in
  let d = { Shard_state.shard; epoch; d_execs = f.n_execs; outcome } in
  ignore (span tr L.shard_encode (fun () -> Shard_state.delta_to_string d));
  d

let save tr ~dir ck =
  let blob = span tr L.ck_encode (fun () -> Checkpoint.to_string ck) in
  tr.c.checkpoint_bytes <- tr.c.checkpoint_bytes + String.length blob;
  span tr L.ck_save (fun () -> Persist.write_atomic ~path:(Checkpoint.file dir) blob)

(* The schedule of [Coordinator.run ~forked:false]: every shard's
   epoch [e] is seeded with front [e-2] (the checkpoint's [prev]). *)
let serve_campaign tr (cfg : Checkpoint.config) ~dir =
  Kernel.force_init ();
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ck0 = Coordinator.initial cfg in
  span tr L.campaign (fun () ->
      save tr ~dir ck0;
      let ck = ref ck0 in
      while !ck.completed < cfg.epochs do
        let epoch = !ck.completed in
        let base = !ck.prev in
        let deltas =
          List.init cfg.jobs (fun shard -> run_epoch tr cfg ~shard ~epoch base)
        in
        let state =
          span tr L.shard_apply (fun () ->
              List.fold_left Shard_state.apply !ck.state deltas)
        in
        ck := { !ck with completed = epoch + 1; state; prev = !ck.state };
        save tr ~dir !ck
      done;
      !ck)
