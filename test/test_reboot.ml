(* The per-execution reboot: what a fresh kernel holds, what an
   execution returns, and what it allocates.

   Every execution boots a pristine kernel (the executor's
   fork-per-test-case). Subsystem state is created on first touch, so
   the reboot is only the state tables; these tests pin that the
   results are the same as when every subsystem was set up at boot. *)

module Target = Healer_syzlang.Target
module K = Healer_kernel
module Exec = Healer_executor.Exec
module Vm = Healer_executor.Vm
module Rng = Healer_util.Rng
module Nl = Test_kernel_netlink
open Healer_core
open Helpers

(* A program generated with uniform call selection. *)
let uniform_prog rng =
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

(* ---- exec golden ---- *)

(* Everything an execution reports: per call the return value, errno,
   executed flag and coverage trace (in first-hit order), then the
   crash key. *)
let add_result b (res : Exec.run_result) =
  Array.iter
    (fun (cr : Exec.call_result) ->
      Printf.bprintf b "%Ld/%s/%b/" cr.Exec.retval
        (match cr.Exec.errno with Some e -> K.Errno.to_string e | None -> "-")
        cr.Exec.executed;
      List.iter (fun blk -> Printf.bprintf b "%d," blk) cr.Exec.cov;
      Buffer.add_char b ';')
    res.Exec.calls;
  Printf.bprintf b "crash=%s\n"
    (Option.value ~default:"-" (crash_key res))

let golden_digest () =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun p -> add_result b (run p))
    (Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()));
  List.iter
    (fun (x : Bug_repros.repro) ->
      if x.Bug_repros.fault_call = None then
        add_result b
          (run ~version:x.Bug_repros.version ~features:x.Bug_repros.features
             (x.Bug_repros.build ())))
    Bug_repros.all;
  let rng = Rng.create 1 in
  for _ = 1 to 500 do
    add_result b (run (uniform_prog rng))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Recorded when every subsystem's state was built at boot; creating
   it on first touch must not move a single result. *)
let test_exec_golden () =
  Alcotest.(check string) "exec results" "c4ebb6c24131344f36c6173cfa04f9d9"
    (golden_digest ())

(* ---- lazy boot ---- *)

let global_names =
  [
    "fs"; "ipc"; "genl_families"; "nl_addrs"; "netdevs"; "mounts";
    "journal"; "rdma"; "rxrpc"; "console";
  ]

let present st = List.filter (fun n -> K.State.global st n <> None) global_names

let test_boot_is_empty () =
  let k = boot () in
  Alcotest.(check (list string)) "fresh boot" [] (present (K.Kernel.state k));
  let k, res =
    Exec.run ~fresh_state:false k
      (prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ])
  in
  check_ok "open" res.Exec.calls.(0);
  Alcotest.(check (list string)) "after open" [ "fs" ]
    (present (K.Kernel.state k));
  Alcotest.(check (list string)) "reboot" []
    (present (K.Kernel.state (K.Kernel.reboot k)))

let getfamily fd name =
  call "sendmsg$GETFAMILY" [ r fd; Nl.getfamily_msg name; i 0L ]

(* The boot families keep the ids registration at boot gave them
   (nlctrl, devlink, ethtool = base, base+1, base+2), whichever
   netlink message reaches the families first and in whatever order
   they are looked up. *)
let check_boot_ids what ~first =
  let n = List.length first in
  let res =
    run
      (prog
         (first
         @ [
             Nl.nl_generic ();
             getfamily n "ethtool";
             getfamily n "devlink";
             getfamily n "nlctrl";
           ]))
  in
  check_crash (what ^ ": no crash") None res;
  List.iteri
    (fun k (name, id) ->
      Alcotest.(check int64) (what ^ ": " ^ name) id
        res.Exec.calls.(n + 1 + k).Exec.retval)
    [ ("ethtool", 0x12L); ("devlink", 0x11L); ("nlctrl", 0x10L) ]

let test_genl_ids () =
  check_boot_ids "genl first" ~first:[];
  check_boot_ids "rtm first"
    ~first:[ Nl.nl_route (); Nl.newlink 0 [ Nl.ifname_attr "dummy0" ] ];
  (* A reload takes the next id after the three boot families. *)
  let res =
    run
      (prog
         [
           Nl.nl_generic ();
           call "sendmsg$devlink_reload" [ r 0; i 0x11L; Nl.genl_msg (); i 0L ];
           getfamily 0 "ethtool";
         ])
  in
  Alcotest.(check int64) "reload id" 0x13L res.Exec.calls.(1).Exec.retval;
  Alcotest.(check int64) "ethtool after reload" 0x12L
    res.Exec.calls.(2).Exec.retval

(* ---- allocation gate ---- *)

(* Mean minor-heap words one [Vm.run] allocates over the seed corpus,
   measured on the production path (debug validation off: it records
   every lock and slot access). The mean is exact for this corpus: 514
   words with state created on first touch, about 1,000 when every
   boot set up all subsystems and a crash triggered a second reboot.
   The bound fails the eager boot. *)
let words_per_run_bound = 700.0

let test_alloc_gate () =
  let progs = Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()) in
  let vm = Vm.create ~version:K.Version.V5_11 ~id:0 () in
  let words =
    without_validation (fun () ->
        (* One warm-up pass settles the lazily built process globals. *)
        List.iter (fun p -> ignore (Vm.run vm p)) progs;
        let before = Gc.minor_words () in
        List.iter (fun p -> ignore (Vm.run vm p)) progs;
        Gc.minor_words () -. before)
  in
  let mean = words /. float_of_int (List.length progs) in
  if mean >= words_per_run_bound then
    Alcotest.failf "%.0f words per Vm.run (bound %.0f)" mean words_per_run_bound

(* ---- results are a function of the program ---- *)

(* What the fuzzer's replay memo relies on: a run's result does not
   depend on which VM runs the program or on what ran there before.
   Each program runs on a VM that ran every earlier program, on a VM
   that runs the same programs in reverse order, and on a fresh VM. *)
let same_everywhere ~version ~features runs =
  let vm id = Vm.create ~features ~version ~id () in
  let dirty = vm 0 and reversed = vm 1 in
  let forward =
    List.map (fun (fault_call, p) -> Vm.run dirty ?fault_call p) runs
  in
  let backward =
    List.rev_map
      (fun (fault_call, p) -> Vm.run reversed ?fault_call p)
      (List.rev runs)
  in
  List.for_all2
    (fun (fault_call, p) (a, b) -> a = b && a = Vm.run (vm 2) ?fault_call p)
    runs
    (List.combine forward backward)

let gen_runs =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* faults = list_size (return 12) (opt ~ratio:0.3 (int_bound 7)) in
  return
    (let rng = Rng.create seed in
     List.map
       (fun fault ->
         let p = uniform_prog rng in
         (Option.map (fun k -> k mod max 1 (Prog.length p)) fault, p))
       faults)

let result_props =
  [
    qcheck ~count:40 "results independent of VM and history" gen_runs
      (same_everywhere ~version:K.Version.V5_11 ~features:[ "fault_injection" ]);
  ]

let test_results_of_program () =
  let seeds = Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()) in
  List.iter
    (fun features ->
      let runs = List.map (fun p -> (None, p)) seeds in
      if not (same_everywhere ~version:K.Version.V5_11 ~features runs) then
        Alcotest.failf "seed corpus, features [%s]" (String.concat "," features))
    [ []; [ "fault_injection" ]; [ "usb" ] ];
  (* Each reproducer also runs right after its own crash. *)
  List.iter
    (fun (x : Bug_repros.repro) ->
      let { Bug_repros.version; features; fault_call; _ } = x in
      let p = x.Bug_repros.build () in
      let runs = [ (fault_call, p); (fault_call, p); (None, List.hd seeds) ] in
      if not (same_everywhere ~version ~features runs) then
        Alcotest.failf "reproducer %s" x.Bug_repros.key;
      if (run ~version ~features ?fault_call p).Exec.crash = None then
        Alcotest.failf "reproducer %s does not crash" x.Bug_repros.key)
    Bug_repros.all

(* ---- replay memo ---- *)

let keyed progs = List.map (fun p -> (Corpus.key p, p)) progs

(* Everything a fuzzer exposes after ingesting its seeds and fuzzing a
   little: clock, exec count, coverage, corpus keys in order, samples
   and crashes. *)
let observe f =
  let corpus = ref [] in
  Corpus.iter_keyed (fun k _ -> corpus := k :: !corpus) (Fuzzer.corpus f);
  let cov = ref [] in
  Healer_util.Bitset.iter (fun b -> cov := b :: !cov) (Fuzzer.coverage_set f);
  (Fuzzer.now f, Fuzzer.execs f, !cov, !corpus, Fuzzer.samples f, Fuzzer.crash_log f)

let test_memo_replay () =
  let rng = Rng.create 3 in
  let generated = List.init 60 (fun _ -> uniform_prog rng) in
  let seeds = keyed (Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()) @ generated) in
  List.iter
    (fun tool ->
      let cfg = Fuzzer.config ~seed:5 ~tool ~version:K.Version.V5_11 () in
      let replay ?memo () =
        let f = Fuzzer.create ~initial_seeds:seeds ?memo cfg in
        let ingested = observe f in
        Fuzzer.run_until f (Fuzzer.now f +. 600.0);
        (ingested, observe f)
      in
      let memo = Fuzzer.Memo.create ~tool ~version:K.Version.V5_11 in
      let plain = replay () in
      let cold = replay ~memo () in
      let size = Fuzzer.Memo.size memo in
      let warm = replay ~memo () in
      let name = Fuzzer.tool_name tool in
      Alcotest.(check bool) (name ^ ": cold memo == no memo") true (cold = plain);
      Alcotest.(check bool) (name ^ ": warm memo == no memo") true (warm = plain);
      Alcotest.(check int) (name ^ ": warm replay adds nothing") size
        (Fuzzer.Memo.size memo);
      (* Moonshine's distilled seeds are among [seeds] too. *)
      Alcotest.(check int) (name ^ ": one entry per distinct seed")
        (List.length (List.sort_uniq compare (List.map fst seeds)))
        size)
    [ Fuzzer.Healer; Fuzzer.Syzkaller; Fuzzer.Moonshine ]

(* Mean minor-heap words a warm-memo [Fuzzer.create] spends per seed
   over the seed corpus: the words of a create with the seeds minus a
   create without them, validation off as in the run gate above. The
   mean is exact for this corpus: 113 words with the memo warm, 157
   when each admitted seed is encoded and hashed again for its corpus
   key, and 718 when every seed also executes again. The bound leaves
   a quarter of headroom over the warm figure and fails both others. *)
let words_per_seed_bound = 140.0

let test_replay_alloc_gate () =
  let seeds = keyed (Seeds.traces (tgt ()) @ Seeds.distilled (tgt ())) in
  let cfg = Fuzzer.config ~seed:1 ~tool:Fuzzer.Healer ~version:K.Version.V5_11 () in
  let memo = Fuzzer.Memo.create ~tool:Fuzzer.Healer ~version:K.Version.V5_11 in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let per_seed =
    without_validation (fun () ->
        ignore (Fuzzer.create ~initial_seeds:seeds ~memo cfg);
        let bare = words (fun () -> Fuzzer.create cfg) in
        let warm = words (fun () -> Fuzzer.create ~initial_seeds:seeds ~memo cfg) in
        (warm -. bare) /. float_of_int (List.length seeds))
  in
  if per_seed >= words_per_seed_bound then
    Alcotest.failf "%.0f words per replayed seed (bound %.0f)" per_seed
      words_per_seed_bound

let suite =
  [
    case "exec golden" test_exec_golden;
    case "boot holds no subsystem state" test_boot_is_empty;
    case "genl boot ids on first touch" test_genl_ids;
    case "allocation per run" test_alloc_gate;
    case "results are a function of the program" test_results_of_program;
    case "warm memo replay == cold replay" test_memo_replay;
    case "replay allocation per seed" test_replay_alloc_gate;
  ]
  @ result_props
