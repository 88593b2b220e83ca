(* The compiled execution engine: lowering a program once and patching
   resource slots must be observationally identical to the interpreter
   — results, coverage, crashes and lock accounting — across
   generation, mutation, minimization shapes, fault injection, every
   catalog reproducer, and the prefix cache's compiled-call reuse. *)

module Prog = Healer_executor.Prog
module Value = Healer_executor.Value
module Compiled = Healer_executor.Compiled
module Exec = Healer_executor.Exec
module Exec_cache = Healer_executor.Exec_cache
module Vm = Healer_executor.Vm
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module K = Healer_kernel
open Healer_core
open Helpers

let gen_prog seed =
  let rng = Rng.create seed in
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

(* Full structural run, for bit-identical comparison: the result
   record (retvals, errnos, per-call coverage in first-hit order,
   crash report) plus the kernel's lock-pair counters. *)
let observe_interp ?fault_call p =
  let kernel, r = Exec.run ?fault_call (boot ()) p in
  (r, K.Kernel.lock_pair_counts kernel)

let observe_compiled ?fault_call c =
  let kernel, r = Exec.run_compiled ?fault_call (boot ()) c in
  (r, K.Kernel.lock_pair_counts kernel)

(* Engines agree on generated programs pushed through mutation chains
   (the fuzz loop's exact workload). *)
let test_gen_mutate_differential =
  qcheck ~count:60 "compiled ≡ interpreted over gen+mutate"
    QCheck2.Gen.(pair small_int (int_range 0 4))
    (fun (seed, muts) ->
      let t = tgt () in
      let rng = Rng.create (seed + 1) in
      let select ~sub:_ = Rng.int rng (Target.n_syscalls t) in
      let p = ref (Gen.generate rng t ~select ()) in
      for _ = 1 to muts do
        p := Mutate.mutate rng t ~select !p
      done;
      observe_interp !p = observe_compiled (Compiled.compile !p))

(* Minimization probes: every single-call removal of a program, run
   compiled via the derived form (sharing the parent's skeletons). *)
let test_minimize_shapes =
  qcheck ~count:40 "compiled removal probes ≡ interpreted"
    QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let c = Compiled.compile p in
      let n = Prog.length p in
      n <= 1
      || List.for_all
           (fun pos ->
             observe_interp (Prog.remove p pos)
             = observe_compiled (Compiled.remove c pos))
           (List.init n Fun.id))

(* Derived compiled forms are indistinguishable from recompiling the
   edited program — both in the program they carry and in execution. *)
let test_derived_forms =
  qcheck ~count:40 "derived forms ≡ recompilation" QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let n = Prog.length p in
      if n = 0 then true
      else begin
        let c = Compiled.compile p in
        let rng = Rng.create (seed + 77) in
        let at = Rng.int rng (n + 1) in
        let nc =
          Builder.make_call_b rng (tgt ()) (Prog.Builder.of_prog p) ~at
            (Prog.call p (Rng.int rng n)).Prog.syscall
        in
        let agree derived edited =
          Compiled.prog derived = edited
          && observe_compiled derived = observe_compiled (Compiled.compile edited)
        in
        let rm = Rng.int rng n in
        let cut = Rng.int rng (n + 1) in
        agree (Compiled.insert c at nc) (Prog.insert p at nc)
        && agree (Compiled.append c nc) (Prog.append p nc)
        && agree (Compiled.remove c rm) (Prog.remove p rm)
        && agree (Compiled.sub c cut) (Prog.sub p cut)
      end)

(* Fault injection goes through the compiled path's coredump branch. *)
let test_fault_differential =
  qcheck ~count:30 "fault-injected compiled ≡ interpreted"
    QCheck2.Gen.(pair small_int (int_range 0 12))
    (fun (seed, fc) ->
      let p = gen_prog seed in
      if Prog.length p = 0 then true
      else begin
        let fc = fc mod Prog.length p in
        observe_interp ~fault_call:fc p
        = observe_compiled ~fault_call:fc (Compiled.compile p)
      end)

(* Every catalog reproducer — crashing programs, feature-gated
   subsystems, fault-triggered bugs — behaves identically compiled. *)
let test_repros_differential () =
  List.iter
    (fun (rp : Bug_repros.repro) ->
      let p = rp.Bug_repros.build () in
      let boot () =
        boot ~version:rp.Bug_repros.version ~features:rp.Bug_repros.features ()
      in
      let fault_call = rp.Bug_repros.fault_call in
      let ki, ri = Exec.run ?fault_call (boot ()) p in
      let kc, rc = Exec.run_compiled ?fault_call (boot ()) (Compiled.compile p) in
      if ri <> rc then
        Alcotest.failf "engine divergence on reproducer %s" rp.Bug_repros.key;
      if K.Kernel.lock_pair_counts ki <> K.Kernel.lock_pair_counts kc then
        Alcotest.failf "lock-counter divergence on reproducer %s"
          rp.Bug_repros.key)
    Bug_repros.all

(* The prefix cache serves identical results whichever engine runs
   underneath, across re-runs and removal variants (snapshot resume +
   compiled-prefix reuse paths included). *)
let test_cache_engines_agree =
  qcheck ~count:25 "cached runs identical across engines"
    QCheck2.Gen.small_int
    (fun seed ->
      let p = gen_prog seed in
      let variants =
        p
        :: (if Prog.length p <= 1 then []
            else List.init (Prog.length p) (fun pos -> Prog.remove p pos))
      in
      let saved = Exec.compiled_enabled () in
      Fun.protect ~finally:(fun () -> Exec.set_compiled saved) @@ fun () ->
      let with_engine flag =
        Exec.set_compiled flag;
        let cache = Exec_cache.create ~version:K.Version.V5_11 () in
        List.concat_map
          (fun q -> [ Exec_cache.run cache q; Exec_cache.run cache q ])
          variants
      in
      with_engine true = with_engine false)

(* Compiled-call reuse in the trie: a probe sharing a prefix with an
   earlier run re-lowers only its new suffix. *)
let test_cache_ccall_reuse () =
  let saved = Exec.compiled_enabled () in
  Fun.protect ~finally:(fun () -> Exec.set_compiled saved) @@ fun () ->
  Exec.set_compiled true;
  let cache = Exec_cache.create ~version:K.Version.V5_11 () in
  let p =
    prog
      [
        call "open" [ s "/etc/passwd"; i 0L; i 0L ];
        call "read" [ r 0; buf 16; iv 16 ];
        call "close" [ r 0 ];
      ]
  in
  ignore (Exec_cache.run cache p);
  let st = Exec_cache.stats cache in
  Alcotest.(check int) "first run lowers every call" 3
    st.Exec_cache.compiled_calls;
  Alcotest.(check int) "nothing reused yet" 0 st.Exec_cache.reused_ccalls;
  (* Whole-program re-run: served from the full-result table, no
     lowering at all. *)
  ignore (Exec_cache.run cache p);
  Alcotest.(check int) "full hit lowers nothing" 3 st.Exec_cache.compiled_calls;
  (* Dropping the middle call keeps the one-call prefix: its compiled
     form comes from the trie, only the shifted suffix is lowered. *)
  ignore (Exec_cache.run cache (Prog.remove p 1));
  Alcotest.(check int) "shared prefix reused" 1 st.Exec_cache.reused_ccalls;
  Alcotest.(check int) "suffix lowered" 4 st.Exec_cache.compiled_calls

(* The VM consults the engine toggle per run; both engines drive
   identical campaign-visible results through it. *)
let test_vm_engines_agree () =
  let saved = Exec.compiled_enabled () in
  Fun.protect ~finally:(fun () -> Exec.set_compiled saved) @@ fun () ->
  let with_engine flag =
    Exec.set_compiled flag;
    let vm = Vm.create ~version:K.Version.V5_11 ~id:0 () in
    List.map (fun seed -> Vm.run vm (gen_prog seed)) [ 3; 11; 27; 40; 55 ]
  in
  Alcotest.(check bool) "identical run results" true
    (with_engine true = with_engine false)

(* ---- Prog satellite: builder and early-exit predicates ---- *)

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

let suite =
  [
    test_gen_mutate_differential;
    test_minimize_shapes;
    test_derived_forms;
    test_fault_differential;
    case "catalog reproducers agree across engines" test_repros_differential;
    test_cache_engines_agree;
    case "trie reuses compiled calls" test_cache_ccall_reuse;
    case "VM engine toggle" test_vm_engines_agree;
    test_builder_equiv;
    test_predicates;
  ]
