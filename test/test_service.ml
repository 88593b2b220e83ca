(* The sharded campaign service: CRDT merge laws for every state
   component, wire/checkpoint serialization robustness, and the
   coordinator's determinism guarantees (forked == sequential,
   interrupted+resumed == uninterrupted, worker death == no-op). *)

module Bitset = Healer_util.Bitset
module Target = Healer_syzlang.Target
module K = Healer_kernel
module Serializer = Healer_executor.Serializer
module S = Healer_service
open Healer_core
open Helpers

let n_syscalls () = Target.n_syscalls (tgt ())

let sample_progs =
  lazy
    [
      prog [ call "sync$ALL" [ i 0L; i 0L ] ];
      prog [ call "memfd_create" [ ptr (s "m"); i 2L ] ];
      prog
        [ call "socket$tcp" [ i 2L; i 1L; i 6L ]; call "listen" [ r 0; iv 8 ] ];
      prog [ call "socket$udp" [ i 2L; i 2L; i 17L ] ];
    ]

let sample_records =
  lazy
    (let ps = Lazy.force sample_progs in
     let p n = List.nth ps n in
     let risk n = List.nth K.Risk.all (n mod List.length K.Risk.all) in
     [
       {
         Triage.bug_key = "bug_a";
         risk = risk 0;
         signature = "sig_a";
         first_found = 10.0;
         reproducer = p 0;
         repro_len = 1;
       };
       {
         Triage.bug_key = "bug_a";
         risk = risk 0;
         signature = "sig_a";
         first_found = 5.0;
         reproducer = p 2;
         repro_len = 2;
       };
       {
         Triage.bug_key = "bug_b";
         risk = risk 1;
         signature = "sig_b";
         first_found = 99.0;
         reproducer = p 1;
         repro_len = 1;
       };
       {
         Triage.bug_key = "bug_c";
         risk = risk 2;
         signature = "sig_c";
         first_found = 7.0;
         reproducer = p 3;
         repro_len = 1;
       };
     ])

(* ---- generators ---- *)

let gen_state =
  let open QCheck2.Gen in
  let pick_from l = map (fun idx -> List.nth l idx) (int_bound (List.length l - 1)) in
  let* edges =
    small_list (pair (int_bound (n_syscalls () - 1)) (int_bound (n_syscalls () - 1)))
  in
  let* cov = small_list (int_bound 5000) in
  let* progs = small_list (pick_from (Lazy.force sample_progs)) in
  let* crashes = small_list (pick_from (Lazy.force sample_records)) in
  let* execs = small_list (pair (int_bound 3) (int_bound 1000)) in
  return
    (let relations = Relation_table.create (n_syscalls ()) in
     List.iter (fun (a, b) -> ignore (Relation_table.set relations a b)) edges;
     let coverage = Bitset.create () in
     List.iter (Bitset.add coverage) cov;
     {
       S.Shard_state.n_syscalls = n_syscalls ();
       relations;
       coverage;
       corpus = List.map (fun p -> (S.Shard_state.corpus_key p, p)) progs;
       crashes;
       execs;
     })

let gen_edges n =
  QCheck2.Gen.(small_list (pair (int_bound (n - 1)) (int_bound (n - 1))))

let table_of_edges n edges =
  let t = Relation_table.create n in
  List.iter (fun (a, b) -> ignore (Relation_table.set t a b)) edges;
  t

let bitset_of l =
  let b = Bitset.create () in
  List.iter (Bitset.add b) l;
  b

let corpus_of progs =
  let c = Corpus.create (tgt ()) in
  List.iter (fun p -> ignore (Corpus.add c p ~new_blocks:1)) progs;
  c

let corpus_progs c =
  let acc = ref [] in
  Corpus.iter (fun p -> acc := Serializer.encode p :: !acc) c;
  List.sort compare !acc

let record_key (r : Triage.record) =
  (r.Triage.signature, r.Triage.first_found, Serializer.encode r.Triage.reproducer)

(* ---- CRDT law properties ---- *)

let eq = S.Shard_state.equal
let ( <+> ) = S.Shard_state.merge

let state_props =
  let open QCheck2.Gen in
  [
    qcheck ~count:100 "state merge commutative" (pair gen_state gen_state)
      (fun (a, b) -> eq (a <+> b) (b <+> a));
    qcheck ~count:100 "state merge associative"
      (triple gen_state gen_state gen_state)
      (fun (a, b, c) -> eq ((a <+> b) <+> c) (a <+> (b <+> c)));
    qcheck ~count:100 "state merge idempotent" gen_state (fun a ->
        eq (a <+> a) a);
    qcheck ~count:100 "empty is identity" gen_state (fun a ->
        eq (a <+> S.Shard_state.empty ~n_syscalls:(n_syscalls ())) a);
    qcheck ~count:100 "serialization roundtrip" gen_state (fun a ->
        eq a (S.Shard_state.of_string (tgt ()) (S.Shard_state.to_string a)));
    qcheck ~count:100 "canonical bytes: digest agrees across merge order"
      (pair gen_state gen_state)
      (fun (a, b) ->
        String.equal (S.Shard_state.digest (a <+> b)) (S.Shard_state.digest (b <+> a)));
  ]

(* The incremental-protocol laws: a diff is a sparse state that, merged
   back into its base, reconstructs exactly what shipping the full
   state would have. *)
let diff_props =
  let open QCheck2.Gen in
  let diff = S.Shard_state.diff in
  [
    qcheck ~count:100 "apply law: merge base (diff base s) == merge base s"
      (pair gen_state gen_state)
      (fun (base, s) -> eq (base <+> diff ~since:base s) (base <+> s));
    qcheck ~count:100 "self diff is empty" gen_state (fun a ->
        S.Shard_state.is_empty (diff ~since:a a));
    qcheck ~count:100 "diff against a superset is empty"
      (pair gen_state gen_state)
      (fun (a, b) -> S.Shard_state.is_empty (diff ~since:(a <+> b) a));
    qcheck ~count:100 "diff applies idempotently" (pair gen_state gen_state)
      (fun (base, s) ->
        let d = diff ~since:base s in
        eq (base <+> d <+> d) (base <+> d));
    qcheck ~count:100 "diff survives the wire" (pair gen_state gen_state)
      (fun (base, s) ->
        let d =
          S.Shard_state.of_string (tgt ())
            (S.Shard_state.to_string (diff ~since:base s))
        in
        eq (base <+> d) (base <+> s));
  ]

let relation_props =
  let open QCheck2.Gen in
  let n = 40 in
  let t = table_of_edges n in
  let eq a b = Relation_table.edges a = Relation_table.edges b in
  [
    qcheck "relation merge commutative" (pair (gen_edges n) (gen_edges n))
      (fun (a, b) ->
        eq (Relation_table.merge (t a) (t b)) (Relation_table.merge (t b) (t a)));
    qcheck "relation merge associative"
      (triple (gen_edges n) (gen_edges n) (gen_edges n))
      (fun (a, b, c) ->
        eq
          (Relation_table.merge (Relation_table.merge (t a) (t b)) (t c))
          (Relation_table.merge (t a) (Relation_table.merge (t b) (t c))));
    qcheck "relation merge idempotent" (gen_edges n) (fun a ->
        eq (Relation_table.merge (t a) (t a)) (t a));
    qcheck "empty table is identity" (gen_edges n) (fun a ->
        eq (Relation_table.merge (t a) (Relation_table.create n)) (t a));
  ]

let coverage_props =
  let open QCheck2.Gen in
  let ids = small_list (int_bound 10_000) in
  let union a b =
    let d = Bitset.copy (bitset_of a) in
    Bitset.union_into ~dst:d (bitset_of b);
    Bitset.elements d
  in
  [
    qcheck "coverage union commutative" (pair ids ids) (fun (a, b) ->
        union a b = union b a);
    qcheck "coverage union idempotent" ids (fun a -> union a a = Bitset.elements (bitset_of a));
    qcheck "coverage union associative" (triple ids ids ids) (fun (a, b, c) ->
        union (union a b) c = union a (union b c));
  ]

let corpus_props =
  let open QCheck2.Gen in
  let progs = small_list (map (List.nth (Lazy.force sample_progs)) (int_bound 3)) in
  let merged a b =
    let c = corpus_of a in
    ignore (Corpus.merge_into ~dst:c (corpus_of b));
    corpus_progs c
  in
  [
    qcheck "corpus merge commutative" (pair progs progs) (fun (a, b) ->
        merged a b = merged b a);
    qcheck "corpus merge idempotent" progs (fun a ->
        merged a a = corpus_progs (corpus_of a));
    qcheck "corpus merge associative" (triple progs progs progs)
      (fun (a, b, c) ->
        (let ab = corpus_of a in
         ignore (Corpus.merge_into ~dst:ab (corpus_of b));
         ignore (Corpus.merge_into ~dst:ab (corpus_of c));
         corpus_progs ab)
        = merged a (b @ c));
  ]

let crash_props =
  let open QCheck2.Gen in
  let recs = small_list (map (List.nth (Lazy.force sample_records)) (int_bound 3)) in
  let m lists = List.map record_key (Triage.merge_records lists) in
  [
    qcheck "crash merge commutative" (pair recs recs) (fun (a, b) ->
        m [ a; b ] = m [ b; a ]);
    qcheck "crash merge associative" (triple recs recs recs)
      (fun (a, b, c) -> m [ Triage.merge_records [ a; b ]; c ] = m [ a; Triage.merge_records [ b; c ] ]);
    qcheck "crash merge idempotent" recs (fun a -> m [ a; a ] = m [ a ]);
    qcheck "earliest record wins" (pair recs recs) (fun (a, b) ->
        List.for_all
          (fun (r : Triage.record) ->
            List.for_all
              (fun (o : Triage.record) ->
                (not (String.equal o.Triage.signature r.Triage.signature))
                || o.Triage.first_found >= r.Triage.first_found)
              (a @ b))
          (Triage.merge_records [ a; b ]));
  ]

(* ---- wire protocol ---- *)

let test_wire_roundtrip () =
  let buf = Buffer.create 64 in
  S.Wire.put_int buf 0;
  S.Wire.put_int buf 300;
  S.Wire.put_int buf max_int;
  S.Wire.put_str buf "";
  S.Wire.put_str buf "hello \x00 world";
  S.Wire.put_float buf 1.5;
  S.Wire.put_float buf (-0.0);
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Alcotest.(check int) "zero" 0 (S.Wire.get_int s pos);
  Alcotest.(check int) "multi-byte" 300 (S.Wire.get_int s pos);
  Alcotest.(check int) "max_int" max_int (S.Wire.get_int s pos);
  Alcotest.(check string) "empty string" "" (S.Wire.get_str s pos);
  Alcotest.(check string) "binary string" "hello \x00 world" (S.Wire.get_str s pos);
  Alcotest.(check (float 0.0)) "float" 1.5 (S.Wire.get_float s pos);
  Alcotest.(check (float 0.0)) "negative zero" (-0.0) (S.Wire.get_float s pos);
  Alcotest.(check string) "fully consumed" "" (S.Wire.get_all s pos)

let test_wire_frames_over_pipe () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      S.Wire.send_frame w S.Wire.Epoch "payload one";
      (* Stays under the pipe buffer: both ends live in this process,
         so an oversized frame would block the write forever. *)
      S.Wire.send_frame w S.Wire.Delta (String.make 16_000 'x');
      S.Wire.send_frame w S.Wire.Quit "";
      let tag, p = S.Wire.recv_frame r in
      Alcotest.(check bool) "epoch tag" true (tag = S.Wire.Epoch);
      Alcotest.(check string) "payload" "payload one" p;
      let tag, p = S.Wire.recv_frame r in
      Alcotest.(check bool) "delta tag" true (tag = S.Wire.Delta);
      Alcotest.(check int) "large payload intact" 16_000 (String.length p);
      let tag, _ = S.Wire.recv_frame r in
      Alcotest.(check bool) "quit tag" true (tag = S.Wire.Quit);
      Unix.close w;
      match S.Wire.recv_frame r with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "expected EOF after writer closed")

let test_wire_rejects_garbage () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Unix.write_substring w "Z\x05hello" 0 7);
      match S.Wire.recv_frame r with
      | exception S.Wire.Malformed _ -> ()
      | _ -> Alcotest.fail "accepted unknown frame tag")

(* A length prefix over [Wire.max_payload] is rejected from the header
   alone: nothing of the payload is read or allocated. A frame of
   exactly the bound still decodes. Frames go through a file, which
   unlike a pipe takes a large frame without a concurrent reader. *)
let test_wire_payload_bound () =
  let path = Filename.temp_file "wire" ".frame" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let with_frame write check =
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_TRUNC ] 0o600 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    write fd;
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    check fd
  in
  let rejects what header =
    with_frame
      (fun fd -> ignore (Unix.write_substring fd header 0 (String.length header)))
      (fun fd ->
        let before = Gc.allocated_bytes () in
        (match S.Wire.recv_frame fd with
        | exception S.Wire.Malformed _ -> ()
        | exception End_of_file -> Alcotest.failf "%s: read the payload" what
        | _ -> Alcotest.failf "%s: accepted" what);
        Alcotest.(check bool)
          (what ^ ": no payload allocation")
          true
          (Gc.allocated_bytes () -. before < 1e6))
  in
  let header n =
    let b = Buffer.create 16 in
    Buffer.add_char b 'D';
    S.Wire.put_int b n;
    Buffer.contents b
  in
  rejects "bound + 1" (header (S.Wire.max_payload + 1));
  rejects "sign bit set" ("D" ^ String.make 8 '\xff' ^ "\x7f");
  with_frame
    (fun fd ->
      S.Wire.send_frame fd S.Wire.Delta (String.make S.Wire.max_payload 'x'))
    (fun fd ->
      let tag, p = S.Wire.recv_frame fd in
      Alcotest.(check bool) "delta tag" true (tag = S.Wire.Delta);
      Alcotest.(check int) "payload at the bound" S.Wire.max_payload
        (String.length p))

(* ---- worker determinism and delta folding ---- *)

let small_cfg ?(jobs = 2) ?(epochs = 2) ?(seed = 5) ?(slice = 30.0) () =
  {
    S.Checkpoint.tool = Fuzzer.Healer;
    version = K.Version.V5_11;
    jobs;
    base_seed = seed;
    epochs;
    slice;
  }

let test_worker_deterministic () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d1 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  let d2 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  Alcotest.(check string) "identical delta bytes"
    (S.Shard_state.delta_to_string d1)
    (S.Shard_state.delta_to_string d2)

(* The harvest reuses the keys the fuzzer's corpus computed when each
   program was added (also across [Corpus.merge_into]); each must still
   be the digest of the program's encoding. *)
let test_harvest_keys () =
  let key_ok (k, p) = k = Digest.string (Serializer.encode p) in
  let d =
    S.Worker.run_epoch (small_cfg ()) ~shard:0 ~epoch:0
      (S.Shard_state.of_target (tgt ()))
  in
  let harvested = d.S.Shard_state.outcome.S.Shard_state.corpus in
  Alcotest.(check bool) "harvest is non-empty" true (harvested <> []);
  Alcotest.(check bool) "harvest keys" true (List.for_all key_ok harvested);
  let merged = Corpus.create (tgt ()) in
  ignore (Corpus.merge_into ~dst:merged (corpus_of (List.map snd harvested)));
  let kept = ref [] in
  Corpus.iter_keyed (fun k p -> kept := (k, p) :: !kept) merged;
  Alcotest.(check int) "merged size" (List.length harvested) (List.length !kept);
  Alcotest.(check bool) "merged keys" true (List.for_all key_ok !kept)

let test_fold_order_irrelevant () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d0 = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  let d1 = S.Worker.run_epoch cfg ~shard:1 ~epoch:0 g in
  let a = S.Shard_state.apply (S.Shard_state.apply g d0) d1 in
  let b = S.Shard_state.apply (S.Shard_state.apply g d1) d0 in
  Alcotest.(check bool) "two shards fold to the same state either way" true
    (eq a b);
  Alcotest.(check int) "exec counters are exact"
    (d0.S.Shard_state.d_execs + d1.S.Shard_state.d_execs)
    (S.Shard_state.total_execs a)

let test_delta_roundtrip () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d = S.Worker.run_epoch cfg ~shard:1 ~epoch:0 g in
  let d' =
    S.Shard_state.delta_of_string (tgt ()) (S.Shard_state.delta_to_string d)
  in
  Alcotest.(check int) "shard" d.S.Shard_state.shard d'.S.Shard_state.shard;
  Alcotest.(check int) "epoch" d.S.Shard_state.epoch d'.S.Shard_state.epoch;
  Alcotest.(check int) "d_execs" d.S.Shard_state.d_execs d'.S.Shard_state.d_execs;
  Alcotest.(check bool) "outcome" true
    (eq d.S.Shard_state.outcome d'.S.Shard_state.outcome)

(* ---- replay memo ---- *)

(* A base with a corpus: both shards' epoch-0 outcomes folded into the
   initial state, as front 0 of a 2-shard campaign. *)
let front0 cfg =
  let g = S.Shard_state.of_target (tgt ()) in
  List.fold_left S.Shard_state.apply g
    (List.init 2 (fun shard -> S.Worker.run_epoch cfg ~shard ~epoch:0 g))

let test_memo_epoch_identical () =
  let cfg = small_cfg () in
  let base = front0 cfg in
  Alcotest.(check bool) "base has a corpus" true (base.S.Shard_state.corpus <> []);
  let delta ?memo () =
    S.Shard_state.delta_to_string (S.Worker.run_epoch ?memo cfg ~shard:1 ~epoch:2 base)
  in
  let memo = Fuzzer.Memo.create ~tool:cfg.S.Checkpoint.tool ~version:cfg.S.Checkpoint.version in
  let plain = delta () in
  Alcotest.(check string) "cold memo == no memo" plain (delta ~memo ());
  let size = Fuzzer.Memo.size memo in
  Alcotest.(check bool) "cold memo filled" true (size > 0);
  Alcotest.(check string) "warm memo == no memo" plain (delta ~memo ());
  Alcotest.(check int) "warm epoch adds no entries" size (Fuzzer.Memo.size memo)

(* The in-process lag-2 schedule of [Coordinator.run ~forked:false],
   with one memo shared by every shard and epoch: it reaches the
   coordinator's digest, and the memo holds at most the final corpus,
   since it only ever holds keys of the grow-only base. *)
let test_memo_bounded_by_corpus () =
  let cfg = small_cfg ~epochs:6 () in
  let memo = Fuzzer.Memo.create ~tool:cfg.S.Checkpoint.tool ~version:cfg.S.Checkpoint.version in
  let g = S.Shard_state.of_target (tgt ()) in
  let rec go epoch ~prev ~state =
    if epoch = cfg.S.Checkpoint.epochs then state
    else
      let deltas =
        List.init cfg.S.Checkpoint.jobs (fun shard ->
            S.Worker.run_epoch ~memo cfg ~shard ~epoch prev)
      in
      go (epoch + 1) ~prev:state ~state:(List.fold_left S.Shard_state.apply state deltas)
  in
  let final = go 0 ~prev:g ~state:g in
  let coordinator =
    (S.Coordinator.run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
  in
  Alcotest.(check string) "same digest as the coordinator"
    (S.Shard_state.digest coordinator.S.Checkpoint.state)
    (S.Shard_state.digest final);
  let corpus = List.length final.S.Shard_state.corpus in
  Alcotest.(check bool)
    (Printf.sprintf "memo %d entries, final corpus %d" (Fuzzer.Memo.size memo) corpus)
    true
    (Fuzzer.Memo.size memo > 0 && Fuzzer.Memo.size memo <= corpus)

let test_memo_bound_to_version_features () =
  let cfg = small_cfg () in
  let base = S.Shard_state.of_target (tgt ()) in
  let memo = Fuzzer.Memo.create ~tool:Fuzzer.Healer ~version:K.Version.V5_11 in
  List.iter
    (fun (what, cfg) ->
      match S.Worker.run_epoch ~memo cfg ~shard:0 ~epoch:2 base with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "memo reused under another %s" what)
    [
      ("version", { cfg with S.Checkpoint.version = K.Version.V5_4 });
      ("feature set", { cfg with S.Checkpoint.tool = Fuzzer.Syzkaller });
    ]

(* ---- coordinator ---- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "healer-svc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let run = S.Coordinator.run

let test_forked_equals_sequential () =
  let cfg = small_cfg () in
  let seq = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  let fkd = (run ~forked:true (S.Coordinator.initial cfg)).S.Coordinator.final in
  Alcotest.(check bool) "bit-identical merged state" true
    (eq seq.S.Checkpoint.state fkd.S.Checkpoint.state);
  Alcotest.(check int) "same epochs completed" seq.S.Checkpoint.completed
    fkd.S.Checkpoint.completed;
  Alcotest.(check bool) "campaign made progress" true
    (S.Shard_state.total_execs seq.S.Checkpoint.state > 0)

let test_interrupted_resume () =
  with_tmpdir @@ fun dir ->
  let cfg = small_cfg ~epochs:3 () in
  let full = (run ~forked:true (S.Coordinator.initial cfg)).S.Coordinator.final in
  (* Kill the campaign after one epoch, then resume from disk. *)
  let part =
    (run ~forked:true ~checkpoint_dir:dir ~stop_after:1
       (S.Coordinator.initial cfg))
      .S.Coordinator.final
  in
  Alcotest.(check int) "stopped early" 1 part.S.Checkpoint.completed;
  let loaded = S.Checkpoint.load (tgt ()) ~path:dir in
  Alcotest.(check bool) "checkpoint holds the interrupted state" true
    (eq part.S.Checkpoint.state loaded.S.Checkpoint.state);
  let resumed = (run ~forked:true ~checkpoint_dir:dir loaded).S.Coordinator.final in
  Alcotest.(check int) "resumed to completion" cfg.S.Checkpoint.epochs
    resumed.S.Checkpoint.completed;
  Alcotest.(check bool) "resumed == uninterrupted (relations, coverage, \
                         corpus, crashes, execs)" true
    (eq full.S.Checkpoint.state resumed.S.Checkpoint.state)

let test_worker_death_respawn () =
  let cfg = small_cfg () in
  let baseline =
    (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
  in
  let killed = ref 0 in
  let chaos ~epoch pids =
    if epoch = 0 then
      match pids with
      | (_, pid) :: _ ->
        incr killed;
        Unix.kill pid Sys.sigkill
      | [] -> ()
  in
  let out = run ~forked:true ~chaos (S.Coordinator.initial cfg) in
  Alcotest.(check int) "one worker was killed" 1 !killed;
  Alcotest.(check bool) "death was detected and recovered" true
    (out.S.Coordinator.respawns >= 1);
  Alcotest.(check bool) "worker death does not perturb results" true
    (eq baseline.S.Checkpoint.state out.S.Coordinator.final.S.Checkpoint.state)

(* With three shards over four epochs the pipelined coordinator lets
   shards drift up to two epochs apart; it must still land on the
   in-process oracle's digest, bit for bit. *)
let test_pipelined_equals_sequential () =
  let cfg = small_cfg ~epochs:4 ~jobs:3 () in
  let final =
    (run ~forked:true (S.Coordinator.initial cfg)).S.Coordinator.final
  in
  Alcotest.(check int) "completed all epochs" cfg.S.Checkpoint.epochs
    final.S.Checkpoint.completed;
  let async = S.Shard_state.digest final.S.Checkpoint.state in
  let seq =
    S.Shard_state.digest
      (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
        .S.Checkpoint.state
  in
  Alcotest.(check string) "async == sequential oracle" seq async

(* Killing workers mid-campaign must not perturb the async digest
   either: respawned workers are re-seeded with a full diff and
   reproduce the lost slice exactly. *)
let test_chaos_equals_inprocess () =
  let cfg = small_cfg ~epochs:3 () in
  let baseline =
    (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final
  in
  let chaos ~epoch pids =
    if epoch <= 1 then
      match List.nth_opt pids (epoch mod List.length pids) with
      | Some (_, pid) -> Unix.kill pid Sys.sigkill
      | None -> ()
  in
  let out = run ~forked:true ~chaos (S.Coordinator.initial cfg) in
  Alcotest.(check bool) "deaths were recovered" true
    (out.S.Coordinator.respawns >= 1);
  Alcotest.(check string) "chaos async == in-process"
    (S.Shard_state.digest baseline.S.Checkpoint.state)
    (S.Shard_state.digest out.S.Coordinator.final.S.Checkpoint.state)

(* Truncated or garbled incremental frames must be rejected loudly
   (Malformed → respawn), never folded as partial state. *)
let test_incremental_frames_reject_corruption () =
  let cfg = small_cfg () in
  let g = S.Shard_state.of_target (tgt ()) in
  let d = S.Worker.run_epoch cfg ~shard:0 ~epoch:0 g in
  let full = S.Shard_state.apply g d in
  let diff_blob =
    S.Shard_state.to_string (S.Shard_state.diff ~since:g full)
  in
  let delta_blob = S.Shard_state.delta_to_string d in
  let check_rejects what parse blob =
    List.iter
      (fun pct ->
        let len = String.length blob * pct / 100 in
        if len < String.length blob then
          match parse (String.sub blob 0 len) with
          | exception S.Shard_state.Malformed _ -> ()
          | _ ->
            Alcotest.fail
              (Printf.sprintf "accepted %d%% truncated %s frame" pct what))
      [ 0; 7; 25; 50; 75; 93; 99 ];
    match parse (blob ^ "\x01") with
    | exception S.Shard_state.Malformed _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted %s trailing garbage" what)
  in
  check_rejects "diff" (S.Shard_state.of_string (tgt ())) diff_blob;
  check_rejects "delta" (S.Shard_state.delta_of_string (tgt ())) delta_blob

(* ---- checkpoint durability ---- *)

let test_checkpoint_roundtrip () =
  let cfg = small_cfg ~epochs:1 () in
  let ck = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  let ck' = S.Checkpoint.of_string (tgt ()) (S.Checkpoint.to_string ck) in
  Alcotest.(check bool) "state" true (eq ck.S.Checkpoint.state ck'.S.Checkpoint.state);
  Alcotest.(check int) "completed" ck.S.Checkpoint.completed ck'.S.Checkpoint.completed;
  Alcotest.(check int) "jobs" ck.S.Checkpoint.config.S.Checkpoint.jobs
    ck'.S.Checkpoint.config.S.Checkpoint.jobs;
  Alcotest.(check (float 0.0)) "slice" ck.S.Checkpoint.config.S.Checkpoint.slice
    ck'.S.Checkpoint.config.S.Checkpoint.slice

let test_checkpoint_rejects_truncation () =
  let cfg = small_cfg ~epochs:1 () in
  let ck = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  let s = S.Checkpoint.to_string ck in
  List.iter
    (fun pct ->
      let len = String.length s * pct / 100 in
      if len < String.length s then
        match S.Checkpoint.of_string (tgt ()) (String.sub s 0 len) with
        | exception S.Checkpoint.Malformed _ -> ()
        | _ -> Alcotest.fail (Printf.sprintf "accepted %d%% truncation" pct))
    [ 0; 3; 10; 25; 50; 75; 90; 99 ];
  (* Unknown future format versions are rejected, not misparsed. *)
  let bumped = Bytes.of_string s in
  Bytes.set bumped 6 '\255';
  (match S.Checkpoint.of_string (tgt ()) (Bytes.to_string bumped) with
  | exception S.Checkpoint.Malformed _ -> ()
  | _ -> Alcotest.fail "accepted unknown format version");
  (match S.Checkpoint.of_string (tgt ()) (s ^ "x") with
  | exception S.Checkpoint.Malformed _ -> ()
  | _ -> Alcotest.fail "accepted trailing bytes");
  (* Hostile coverage ids: one far past every allocated branch id
     (would size the bitset to it), and two of max_int (would overflow
     the delta-encoded running sum). Both must surface as the typed
     error, from a bare state and from a checkpoint, before any large
     allocation. *)
  let hostile_state deltas =
    let buf = Buffer.create 32 in
    S.Wire.put_int buf (n_syscalls ());
    S.Wire.put_int buf 0;
    S.Wire.put_int buf (List.length deltas);
    List.iter (S.Wire.put_int buf) deltas;
    List.iter (S.Wire.put_int buf) [ 0; 0; 0 ];
    Buffer.contents buf
  in
  let incr_len =
    String.length
      (S.Shard_state.to_string
         (S.Shard_state.diff ~since:ck.S.Checkpoint.prev ck.S.Checkpoint.state))
  in
  let header = String.sub s 0 (String.length s - incr_len) in
  let rejects what parse is_typed blob =
    let before = Gc.allocated_bytes () in
    (match parse blob with
    | exception e when is_typed e -> ()
    | exception e ->
      Alcotest.fail (Printf.sprintf "%s: raised %s" what (Printexc.to_string e))
    | _ -> Alcotest.fail (Printf.sprintf "%s: accepted" what));
    let allocated = Gc.allocated_bytes () -. before in
    if allocated >= 1e6 then
      Alcotest.fail (Printf.sprintf "%s: allocated %.0f bytes" what allocated)
  in
  List.iter
    (fun (what, deltas) ->
      let blob = hostile_state deltas in
      rejects (what ^ " state")
        (S.Shard_state.of_string (tgt ()))
        (function S.Shard_state.Malformed _ -> true | _ -> false)
        blob;
      rejects (what ^ " checkpoint")
        (S.Checkpoint.of_string (tgt ()))
        (function S.Checkpoint.Malformed _ -> true | _ -> false)
        (header ^ blob))
    [ ("id 2^30", [ 1 lsl 30 ]); ("two max_int ids", [ max_int; max_int ]) ]

let test_checkpoint_midwrite_crash () =
  with_tmpdir @@ fun dir ->
  let cfg = small_cfg ~epochs:1 () in
  let ck = (run ~forked:false (S.Coordinator.initial cfg)).S.Coordinator.final in
  S.Checkpoint.save ~dir ck;
  (* A crash mid-write leaves a partial temp file behind but never
     touches the live checkpoint: the rename is the commit point. *)
  let oc = open_out_bin (S.Checkpoint.file dir ^ ".tmp") in
  output_string oc "partial garbage cut off mid-wr";
  close_out oc;
  let loaded = S.Checkpoint.load (tgt ()) ~path:dir in
  Alcotest.(check bool) "previous checkpoint intact after simulated crash" true
    (eq ck.S.Checkpoint.state loaded.S.Checkpoint.state)

let test_checkpoint_merge () =
  let ck seed =
    (run ~forked:false (S.Coordinator.initial (small_cfg ~epochs:1 ~seed ())))
      .S.Coordinator.final
  in
  let a = ck 5 and b = ck 23 in
  let ab = S.Checkpoint.merge a b and ba = S.Checkpoint.merge b a in
  Alcotest.(check bool) "merged states agree either way" true
    (eq ab.S.Checkpoint.state ba.S.Checkpoint.state);
  Alcotest.(check bool) "merge dominates both inputs" true
    (eq ab.S.Checkpoint.state
       (S.Shard_state.merge ab.S.Checkpoint.state a.S.Checkpoint.state)
    && eq ab.S.Checkpoint.state
         (S.Shard_state.merge ab.S.Checkpoint.state b.S.Checkpoint.state))

let suite =
  state_props @ diff_props @ relation_props @ coverage_props @ corpus_props
  @ crash_props
  @ [
      case "wire primitives roundtrip" test_wire_roundtrip;
      case "wire frames over a pipe" test_wire_frames_over_pipe;
      case "wire rejects unknown tags" test_wire_rejects_garbage;
      case "wire payload bound" test_wire_payload_bound;
      case "worker epoch is deterministic" test_worker_deterministic;
      case "harvest reuses corpus keys" test_harvest_keys;
      case "delta fold order is irrelevant" test_fold_order_irrelevant;
      case "delta roundtrip" test_delta_roundtrip;
      case "memo: no, cold and warm memo give one delta" test_memo_epoch_identical;
      case "memo: bounded by the final corpus" test_memo_bounded_by_corpus;
      case "memo: bound to version and features" test_memo_bound_to_version_features;
      case "forked == sequential" test_forked_equals_sequential;
      case "interrupted + resumed == uninterrupted" test_interrupted_resume;
      case "worker death: respawn, same results" test_worker_death_respawn;
      case "pipelined 3x4 == sequential" test_pipelined_equals_sequential;
      case "chaos kills leave the async digest fixed"
        test_chaos_equals_inprocess;
      case "incremental frames reject corruption"
        test_incremental_frames_reject_corruption;
      case "checkpoint roundtrip" test_checkpoint_roundtrip;
      case "checkpoint rejects corruption" test_checkpoint_rejects_truncation;
      case "mid-write crash keeps previous checkpoint" test_checkpoint_midwrite_crash;
      case "checkpoint merge" test_checkpoint_merge;
    ]
