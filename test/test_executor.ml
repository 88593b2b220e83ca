module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Serializer = Healer_executor.Serializer
module Exec = Healer_executor.Exec
module Vm = Healer_executor.Vm
module Pool = Healer_executor.Pool
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module K = Healer_kernel
open Helpers

let gen_prog seed =
  let rng = Rng.create seed in
  Healer_core.Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

(* ---- Prog editing ---- *)

let sample_prog () =
  prog
    [
      call "memfd_create" [ ptr (s "memfd"); i 3L ];
      call "write" [ r 0; buf 64; iv 64 ];
      call "fcntl$ADD_SEALS" [ r 0; i 0x409L; i 0x8L ];
      call "mmap" [ vma; iv 4096; i 1L; i 2L; r 0; i 0L ];
    ]

let test_prog_basics () =
  let p = sample_prog () in
  Alcotest.(check int) "length" 4 (Prog.length p);
  Alcotest.(check bool) "well formed" true (Prog.well_formed p);
  Alcotest.(check bool) "call 0 used" true (Prog.uses_result_of p 0);
  Alcotest.(check bool) "call 1 unused" false (Prog.uses_result_of p 1)

let test_prog_remove_shifts_refs () =
  let p = Prog.remove (sample_prog ()) 1 in
  Alcotest.(check int) "length" 3 (Prog.length p);
  Alcotest.(check bool) "still well formed" true (Prog.well_formed p);
  (* mmap's reference to call 0 must survive the removal of call 1. *)
  match (Prog.call p 2).Prog.args with
  | [ _; _; _; _; Value.Res_ref 0; _ ] -> ()
  | _ -> Alcotest.fail "reference not preserved"

let test_prog_remove_degrades_refs () =
  let p = Prog.remove (sample_prog ()) 0 in
  Alcotest.(check bool) "well formed" true (Prog.well_formed p);
  (* References to the removed producer degrade to the special -1. *)
  match (Prog.call p 0).Prog.args with
  | [ Value.Res_special -1L; _; _ ] -> ()
  | _ -> Alcotest.fail "dangling reference should degrade"

let test_prog_insert_renumbers () =
  let p = sample_prog () in
  let extra = call "fsync" [ r 0 ] in
  let p' = Prog.insert p 1 extra in
  Alcotest.(check int) "length" 5 (Prog.length p');
  Alcotest.(check bool) "well formed" true (Prog.well_formed p');
  (* The old call 1 (write) moved to index 2, still referencing 0. *)
  match (Prog.call p' 2).Prog.args with
  | [ Value.Res_ref 0; _; _ ] -> ()
  | _ -> Alcotest.fail "renumbering"

let test_prog_sub () =
  let p = Prog.sub (sample_prog ()) 2 in
  Alcotest.(check int) "prefix" 2 (Prog.length p);
  Alcotest.(check bool) "well formed" true (Prog.well_formed p)

let test_prog_pp () =
  let out = Prog.to_string (sample_prog ()) in
  Alcotest.(check bool) "names result" true
    (String.length out > 0
    && String.sub out 0 5 = "r0 = ")

(* Random edit sequences keep programs well-formed. *)
let test_prog_edit_invariant =
  qcheck ~count:300 "remove/insert keep refs backwards"
    QCheck2.Gen.(list (pair bool (int_range 0 10)))
    (fun edits ->
      let p = ref (sample_prog ()) in
      List.iter
        (fun (is_remove, pos) ->
          if is_remove && Prog.length !p > 1 then
            p := Prog.remove !p (pos mod Prog.length !p)
          else if Prog.length !p < 12 then
            p :=
              Prog.insert !p
                (pos mod (Prog.length !p + 1))
                (call "fsync" [ i 0L ]))
        edits;
      Prog.well_formed !p)

(* A random edit script applied to a builder and to the immutable
   program agrees call-for-call. *)
let test_builder_equiv =
  qcheck ~count:80 "Prog.Builder ≡ immutable edits"
    QCheck2.Gen.(pair small_int (list_size (int_range 0 12) (pair small_int bool)))
    (fun (seed, ops) ->
      let p = gen_prog seed in
      if Prog.length p = 0 then true
      else begin
        let b = Prog.Builder.of_prog p in
        let q = ref p in
        List.iter
          (fun (x, push) ->
            let c = Prog.call p (x mod Prog.length p) in
            if push then begin
              Prog.Builder.push b c;
              q := Prog.append !q c
            end
            else begin
              let at = x mod (Prog.Builder.length b + 1) in
              Prog.Builder.insert b at c;
              q := Prog.insert !q at c
            end)
          ops;
        Prog.Builder.to_prog b = !q
        && Prog.Builder.length b = Prog.length !q
      end)

(* The early-exit predicates match their exhaustive definitions, on
   well-formed programs and on deliberately corrupted ones. *)
let test_predicates =
  qcheck ~count:60 "well_formed/uses_result_of ≡ exhaustive scan"
    QCheck2.Gen.(pair small_int bool)
    (fun (seed, corrupt) ->
      let p = gen_prog seed in
      let p =
        if corrupt && Prog.length p > 0 then
          Prog.append p
            {
              Prog.syscall = (Prog.call p 0).Prog.syscall;
              args = [ Value.Res_ref 99 ];
            }
        else p
      in
      let n = Prog.length p in
      let wf_ref =
        let ok = ref true in
        for k = 0 to n - 1 do
          List.iter
            (fun i -> if i >= k || i < 0 then ok := false)
            (Prog.refs_of_call (Prog.call p k))
        done;
        !ok
      in
      let uses_ref i =
        let used = ref false in
        for k = 0 to n - 1 do
          if k > i && List.mem i (Prog.refs_of_call (Prog.call p k)) then
            used := true
        done;
        !used
      in
      Prog.well_formed p = wf_ref
      && List.for_all
           (fun i -> Prog.uses_result_of p i = uses_ref i)
           (List.init n Fun.id))

(* ---- serializer ---- *)

let test_roundtrip_explicit () =
  let p = sample_prog () in
  let decoded = Serializer.decode (tgt ()) (Serializer.encode p) in
  Alcotest.(check int) "length" (Prog.length p) (Prog.length decoded);
  for k = 0 to Prog.length p - 1 do
    let a = Prog.call p k and b = Prog.call decoded k in
    Alcotest.(check string) "syscall"
      a.Prog.syscall.Healer_syzlang.Syscall.name
      b.Prog.syscall.Healer_syzlang.Syscall.name;
    Alcotest.(check bool) "args equal" true
      (List.for_all2 Value.equal a.Prog.args b.Prog.args)
  done

(* Exercises every wire form the serializer knows, with values picked
   for shape coverage rather than type correctness — so decode-time
   validation is scoped off for this one test. *)
let test_roundtrip_all_value_forms () =
  without_validation @@ fun () ->
  let p =
    prog
      [
        call "read"
          [
            Value.Res_special (-1L);
            Value.Buf (Bytes.of_string "\x00\xff\x80");
            Value.Int Int64.min_int;
          ];
        call "mmap"
          [ Value.Vma 0xffffffffffffL; Value.Null;
            Value.Ptr (Value.Group [ Value.Int 1L; Value.Str "s" ]);
            Value.Group []; Value.Res_ref 0; Value.Int Int64.max_int ];
      ]
  in
  let decoded = Serializer.decode (tgt ()) (Serializer.encode p) in
  let b = Prog.call decoded 1 in
  Alcotest.(check bool) "args equal" true
    (List.for_all2 Value.equal (Prog.call p 1).Prog.args b.Prog.args)

let test_serializer_malformed () =
  let expect_malformed s =
    match Serializer.decode (tgt ()) s with
    | exception Serializer.Malformed _ -> ()
    | _ -> Alcotest.fail "should reject"
  in
  expect_malformed "";
  expect_malformed "XXXX";
  expect_malformed "HLR1";
  let good = Serializer.encode (sample_prog ()) in
  expect_malformed (String.sub good 0 (String.length good - 1));
  expect_malformed (good ^ "\x00")

(* A hostile chain of 1 MiB of [Ptr] tags, or of one-element [Group]s,
   used to recurse once per link; the decoder now stops at a fixed
   depth with the typed error, before allocating or recursing further.
   Validation is off, as on the production decode path, so nothing
   but the depth cap rejects them. *)
let test_serializer_nesting_bound () =
  without_validation @@ fun () ->
  let encoded link n =
    let b = Buffer.create ((String.length link * n) + 16) in
    Buffer.add_string b "HLR1";
    Serializer.put_uvarint b 1L;
    Serializer.put_uvarint b
      (Int64.of_int (Target.find_exn (tgt ()) "read").Healer_syzlang.Syscall.id);
    Serializer.put_uvarint b 1L;
    for _ = 1 to n do
      Buffer.add_string b link
    done;
    Buffer.add_char b '\007';
    Buffer.contents b
  in
  List.iter
    (fun (what, link) ->
      ignore (Serializer.decode (tgt ()) (encoded link 32));
      let chain = encoded link ((1 lsl 20) / String.length link) in
      let t0 = Unix.gettimeofday () and a0 = Gc.allocated_bytes () in
      (match Serializer.decode (tgt ()) chain with
      | exception Serializer.Malformed _ -> ()
      | _ -> Alcotest.failf "%s chain accepted" what);
      let secs = Unix.gettimeofday () -. t0 and bytes = Gc.allocated_bytes () -. a0 in
      if bytes >= 1e6 then Alcotest.failf "%s chain: %.0f bytes allocated" what bytes;
      if secs >= 0.5 then Alcotest.failf "%s chain: %.3f s" what secs)
    [ ("Ptr", "\006"); ("Group", "\005\001") ]

let test_varint_roundtrip =
  qcheck "uvarint roundtrip"
    QCheck2.Gen.(map Int64.of_int int)
    (fun v ->
      let v = Int64.logand v Int64.max_int in
      let b = Buffer.create 10 in
      Serializer.put_uvarint b v;
      let pos = ref 0 in
      Serializer.get_uvarint (Buffer.contents b) pos = v)

(* ---- execution ---- *)

let test_exec_basic_flow () =
  let p =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "write" [ r 0; buf 100; iv 100 ];
        call "read" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run p in
  check_ok "open" r.Exec.calls.(0);
  check_ok "write" r.Exec.calls.(1);
  Alcotest.(check int64) "write count" 100L r.Exec.calls.(1).Exec.retval;
  Alcotest.(check bool) "coverage nonempty" true (r.Exec.calls.(0).Exec.cov <> [])

let test_exec_failed_ref_degrades () =
  (* The open fails (no O_CREAT on a missing file); the dependent write
     then gets fd -1 and fails with EBADF. *)
  let p =
    prog
      [
        call "open" [ s "/tmp/missing"; i 0L; i 0L ];
        call "write" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run p in
  check_errno "open fails" (Some K.Errno.ENOENT) r.Exec.calls.(0);
  check_errno "write gets bad fd" (Some K.Errno.EBADF) r.Exec.calls.(1)

let test_exec_deterministic () =
  let p = sample_prog () in
  let r1 = run p and r2 = run p in
  Array.iteri
    (fun k (c1 : Exec.call_result) ->
      Alcotest.(check bool)
        (Printf.sprintf "call %d cov equal" k)
        true
        (Exec.cov_equal c1.Exec.cov r2.Exec.calls.(k).Exec.cov))
    r1.Exec.calls

let test_exec_crash_stops () =
  (* tcp_disconnect: connect then connect$unspec crashes; later calls
     must not execute. *)
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "connect" [ r 0; group [ i 2L; i 80L; i 1L ] ];
        call "connect$unspec" [ r 0; i 0L ];
        call "close" [ r 0 ];
      ]
  in
  let r = run p in
  check_crash "crash key" (Some "tcp_disconnect") r;
  Alcotest.(check bool) "last call skipped" false r.Exec.calls.(3).Exec.executed

let test_exec_sanitizer_gating () =
  (* raw_sendmsg_uninit is a KMSAN bug: invisible without KMSAN. *)
  let p =
    prog
      [
        call "socket$raw" [ i 2L; i 3L; i 255L ];
        call "sendto" [ r 0; buf 4; iv 4; i 0L; group [ i 2L; i 0L; i 0L ] ];
      ]
  in
  let with_kmsan = run p in
  check_crash "detected" (Some "raw_sendmsg_uninit") with_kmsan;
  let without = run ~san:{ K.Sanitizer.default with kmsan = false } p in
  check_crash "silent without kmsan" None without

let test_exec_version_gating () =
  (* blk_add_partitions exists only on 5.11. *)
  let p =
    prog
      [
        call "openat$loop" [ i (-100L); s "/dev/loop0"; i 0L ];
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "ioctl$LOOP_SET_FD" [ r 0; i 0x4c00L; r 1 ];
        call "ioctl$BLKPG_ADD" [ r 0; i 0x1269L; group [ i 1L; i 0L; i 0L ] ];
        call "ioctl$BLKPG_DEL" [ r 0; i 0x126aL; group [ i 1L; i 0L; i 0L ] ];
        call "ioctl$BLKRRPART" [ r 0; i 0x125fL ];
      ]
  in
  check_crash "fires on 5.11" (Some "blk_add_partitions")
    (run ~version:K.Version.V5_11 p);
  check_crash "absent on 5.4" None (run ~version:K.Version.V5_4 p)

let test_exec_fault_injection_coredump () =
  (* Fault injection kills the process after the chosen call; the
     core-dump path leaks uninitialized memory (Listing 2) when KMSAN
     watches and the process had open descriptors. *)
  let p =
    prog
      [
        call "open" [ s "/tmp/f0"; i 0x40L; i 0x1ffL ];
        call "write" [ r 0; buf 10; iv 10 ];
        call "read" [ r 0; buf 10; iv 10 ];
      ]
  in
  let r = run ~version:K.Version.V5_11 ~fault_call:1 p in
  check_crash "fill_thread_core_info" (Some "fill_thread_core_info") r;
  Alcotest.(check bool) "read never ran" false r.Exec.calls.(2).Exec.executed;
  (* Not present before 5.6 in the catalog. *)
  check_crash "absent on 5.4" None (run ~version:K.Version.V5_4 ~fault_call:1 p)

let test_cov_equal () =
  Alcotest.(check bool) "order insensitive" true (Exec.cov_equal [ 1; 2 ] [ 2; 1 ]);
  Alcotest.(check bool) "dup insensitive" true (Exec.cov_equal [ 1; 1 ] [ 1 ]);
  Alcotest.(check bool) "different" false (Exec.cov_equal [ 1 ] [ 2 ])

(* ---- VM and pool ---- *)

let crash_prog () =
  prog
    [
      call "socket$tcp" [ i 2L; i 1L; i 6L ];
      call "connect" [ r 0; group [ i 2L; i 80L; i 1L ] ];
      call "connect$unspec" [ r 0; i 0L ];
    ]

let test_vm_lifecycle () =
  let vm = Vm.create ~version:K.Version.V5_11 ~id:0 () in
  Alcotest.(check bool) "fresh" false (Vm.crashed vm);
  let r = Vm.run vm (crash_prog ()) in
  Alcotest.(check bool) "crashed" true (Vm.crashed vm);
  Alcotest.(check bool) "report" true (r.Exec.crash <> None);
  (* The next run auto-resets. *)
  let _ = Vm.run vm (prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ]) in
  let st = Vm.stats vm in
  Alcotest.(check int) "execs" 2 st.Vm.execs;
  Alcotest.(check int) "crashes" 1 st.Vm.crashes;
  Alcotest.(check int) "resets" 1 st.Vm.resets

let test_pool_round_robin () =
  let pool = Pool.create ~version:K.Version.V5_11 ~size:3 () in
  let ids = List.init 7 (fun _ -> Vm.id (Pool.next pool)) in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 0; 1; 2; 0 ] ids

(* The [size] VMs of a pool, read by cycling the whole ring once, which
   leaves the round-robin cursor where it was. *)
let pool_stats pool ~size =
  List.init size (fun _ -> Vm.stats (Pool.next pool))

let test_pool_stats () =
  let pool = Pool.create ~version:K.Version.V5_11 ~size:2 () in
  ignore (Pool.run pool (crash_prog ()));
  ignore (Pool.run pool (prog [ call "open" [ s "/etc/passwd"; i 0L; i 0L ] ]));
  let stats = pool_stats pool ~size:2 in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 stats in
  Alcotest.(check int) "execs" 2 (sum (fun st -> st.Vm.execs));
  Alcotest.(check int) "crashes" 1 (sum (fun st -> st.Vm.crashes))

(* [Pool.run_probe] survives only as an alias of [Pool.run]: same
   results and same VM bookkeeping, crashing reproducers included. *)
let test_pool_run_probe_is_run () =
  let generated = List.init 30 gen_prog in
  let check what ~version ~features progs =
    let a = Pool.create ~features ~version ~size:2 () in
    let b = Pool.create ~features ~version ~size:2 () in
    List.iter
      (fun p ->
        if Pool.run a p <> Pool.run_probe b p then
          Alcotest.failf "%s: run_probe differs from run on:@.%s" what
            (Prog.to_string p))
      progs;
    let stats_a = pool_stats a ~size:2 in
    if stats_a <> pool_stats b ~size:2 then
      Alcotest.failf "%s: Vm.stats differ" what;
    List.fold_left (fun acc st -> acc + st.Vm.crashes) 0 stats_a
  in
  ignore (check "generated" ~version:K.Version.V5_11 ~features:[] generated);
  let crashes =
    List.fold_left
      (fun n (rp : Bug_repros.repro) ->
        if rp.Bug_repros.fault_call <> None then n
        else
          n
          + check rp.Bug_repros.key ~version:rp.Bug_repros.version
              ~features:rp.Bug_repros.features
              (rp.Bug_repros.build () :: List.filteri (fun k _ -> k < 3) generated))
      0 Bug_repros.all
  in
  Alcotest.(check bool) "reproducers crash" true (crashes > 0)

let suite =
  [
    case "prog basics" test_prog_basics;
    case "prog remove shifts refs" test_prog_remove_shifts_refs;
    case "prog remove degrades refs" test_prog_remove_degrades_refs;
    case "prog insert renumbers" test_prog_insert_renumbers;
    case "prog sub" test_prog_sub;
    case "prog pp" test_prog_pp;
    test_prog_edit_invariant;
    test_builder_equiv;
    test_predicates;
    case "serializer roundtrip" test_roundtrip_explicit;
    case "serializer all value forms" test_roundtrip_all_value_forms;
    case "serializer malformed" test_serializer_malformed;
    case "serializer bounds value nesting" test_serializer_nesting_bound;
    test_varint_roundtrip;
    case "exec basic flow" test_exec_basic_flow;
    case "exec failed ref degrades" test_exec_failed_ref_degrades;
    case "exec deterministic" test_exec_deterministic;
    case "exec crash stops program" test_exec_crash_stops;
    case "exec sanitizer gating" test_exec_sanitizer_gating;
    case "exec version gating" test_exec_version_gating;
    case "exec fault injection coredump" test_exec_fault_injection_coredump;
    case "cov_equal" test_cov_equal;
    case "vm lifecycle" test_vm_lifecycle;
    case "pool round robin" test_pool_round_robin;
    case "pool stats" test_pool_stats;
    case "pool run_probe is run" test_pool_run_probe_is_run;
  ]
