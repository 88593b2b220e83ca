(* The Syzkaller choice-table and Moonshine distillation baselines. *)

module Prog = Healer_executor.Prog
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
open Healer_core
open Helpers

let id name = (Target.find_exn (tgt ()) name).Syscall.id

(* ---- choice table ---- *)

let test_choice_weight_range () =
  let ct = Choice_table.create (tgt ()) in
  let n = Target.n_syscalls (tgt ()) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let w = Choice_table.weight ct i j in
      if w < 0 || w > 1000 then
        Alcotest.fail (Printf.sprintf "weight out of range: P(%d,%d)=%d" i j w)
    done
  done

let test_choice_coarseness () =
  (* The paper's critique: common *type classes* cannot distinguish a
     real influence pair from a spurious one. Both pairs below share
     "has a resource", so their static weights are equal. *)
  let ct = Choice_table.create (tgt ()) in
  let w_real = Choice_table.weight ct (id "ioctl$KVM_CREATE_VCPU") (id "ioctl$KVM_RUN") in
  let w_spurious = Choice_table.weight ct (id "read") (id "listen") in
  Alcotest.(check int) "choice table cannot tell them apart" w_real w_spurious

let test_choice_resourceless_low () =
  let ct = Choice_table.create (tgt ()) in
  let w_compat = Choice_table.weight ct (id "prctl$PR_SET_NAME") (id "ioctl$KVM_RUN") in
  let w_res = Choice_table.weight ct (id "openat$kvm") (id "ioctl$KVM_RUN") in
  Alcotest.(check bool) "resourceless pairs score lower" true (w_compat < w_res)

let test_choice_dynamic_part () =
  let ct = Choice_table.create (tgt ()) in
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let before = Choice_table.weight ct (id "socket$tcp") (id "listen") in
  for _ = 1 to 50 do
    Choice_table.note_corpus_program ct p
  done;
  let after = Choice_table.weight ct (id "socket$tcp") (id "listen") in
  Alcotest.(check bool) "adjacency counts raise P1" true (after > before)

let test_choice_select () =
  let ct = Choice_table.create (tgt ()) in
  let rng = rng () in
  let n = Target.n_syscalls (tgt ()) in
  for _ = 1 to 100 do
    let v = Choice_table.select rng ct ~bias:None in
    if v < 0 || v >= n then Alcotest.fail "select out of range";
    let v = Choice_table.select rng ct ~bias:(Some (id "socket$tcp")) in
    if v < 0 || v >= n then Alcotest.fail "biased select out of range"
  done

(* The whole-matrix form of P1 the table used to maintain: after every
   note, all counters renormalized into [10, 1000] against the largest.
   Kept as the oracle for the lazy per-row normalization. *)
let reference_weights ct counts =
  let n = Array.length counts in
  let vmax = Array.fold_left (fun m row -> Array.fold_left max m row) 0 counts in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let p1 = if vmax > 0 then 10 + (counts.(i).(j) * 990 / vmax) else 10 in
          Choice_table.static_weight ct i j * p1 / 1000))

type choice_op = Note of int | Select of int * int

(* Notes draw from a small pool of programs, so the same adjacent pairs
   recur and the largest counter rises many times; selects in between
   fill row caches that later notes must invalidate. *)
let test_choice_incremental_oracle =
  let op =
    QCheck2.Gen.(
      frequency
        [ (3, map (fun k -> Note k) (int_bound 3));
          (2, map2 (fun b s -> Select (b, s)) (int_bound 1000) small_int) ])
  in
  qcheck ~count:12 "choice table ≡ whole-matrix normalization"
    QCheck2.Gen.(pair small_int (list_size (int_range 1 40) op))
    (fun (seed, ops) ->
      let t = tgt () in
      let n = Target.n_syscalls t in
      let rng = Healer_util.Rng.create seed in
      let uniform ~sub:_ = Healer_util.Rng.int rng n in
      let pool = Array.init 4 (fun _ -> Gen.generate rng t ~select:uniform ()) in
      (* A few rows the notes touch (each program's first call), so
         that a cached row is often selected again after a note. *)
      let rows =
        Array.of_list
          (List.concat_map
             (fun p -> Gen.syscall_ids p ~upto:(min 1 (Prog.length p - 1)))
             (Array.to_list pool))
      in
      let ct = Choice_table.create t in
      let counts = Array.make_matrix n n 0 in
      let noted = ref [] in
      let weights_agree () =
        let want = reference_weights ct counts in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Choice_table.weight ct i j <> want.(i).(j) then ok := false
          done
        done;
        !ok
      in
      let selects_agree (b, s) =
        let bias =
          if b mod 4 <> 0 && rows <> [||] then rows.(b / 4 mod Array.length rows)
          else b mod n
        in
        let fresh = Choice_table.create t in
        List.iter (Choice_table.note_corpus_program fresh) (List.rev !noted);
        let r = Healer_util.Rng.create s in
        let r' = Healer_util.Rng.copy r in
        List.init 64 (fun _ -> Choice_table.select r ct ~bias:(Some bias))
        = List.init 64 (fun _ -> Choice_table.select r' fresh ~bias:(Some bias))
      in
      let ok =
        List.for_all
          (function
            | Note k ->
              let p = pool.(k) in
              for c = 0 to Prog.length p - 2 do
                let i = (Prog.call p c).Prog.syscall.Syscall.id in
                let j = (Prog.call p (c + 1)).Prog.syscall.Syscall.id in
                counts.(i).(j) <- counts.(i).(j) + 1
              done;
              Choice_table.note_corpus_program ct p;
              noted := p :: !noted;
              true
            | Select (b, s) -> weights_agree () && selects_agree (b, s))
          ops
      in
      ok && weights_agree ())

(* ---- distillation ---- *)

let test_dependencies_resource_flow () =
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let deps = Distill.dependencies p 2 in
  Alcotest.(check bool) "listen depends on socket" true (List.mem 0 deps);
  Alcotest.(check bool) "not on the prctl noise" false (List.mem 1 deps)

let test_dependencies_shared_subsystem () =
  let p =
    prog
      [
        call "openat$fb0" [ i (-100L); s "/dev/fb0"; i 0L ];
        call "ioctl$FBIOPAN_DISPLAY" [ r 0; i 0x4606L; group [ i 0L; i 0L; i 0L; i 0L ] ];
      ]
  in
  (* Same subsystem implies a read-write dependency over-approximation. *)
  Alcotest.(check (list int)) "fb pan depends on open" [ 0 ]
    (Distill.dependencies p 1)

let test_slice_runnable () =
  let p =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let slice = Distill.slice p 2 in
  Alcotest.(check int) "noise removed" 2 (Prog.length slice);
  Alcotest.(check bool) "well formed" true (Prog.well_formed slice);
  let result = run slice in
  Alcotest.(check int) "runs" 2 (Array.length result.Healer_executor.Exec.calls)

let test_distill_filters_and_dedups () =
  let trace =
    prog
      [
        call "socket$tcp" [ i 2L; i 1L; i 6L ];
        call "prctl$PR_SET_NAME" [ i 1L; i 2L ];
        call "listen" [ r 0; iv 8 ];
      ]
  in
  let seeds = Distill.distill [ trace; trace ] in
  (* Identical traces collapse; the isolated prctl is dropped. *)
  List.iter
    (fun seed ->
      for k = 0 to Prog.length seed - 1 do
        if (Prog.call seed k).Prog.syscall.Syscall.base = "prctl$PR_SET_NAME" then
          Alcotest.fail "noise survived distillation"
      done)
    seeds;
  let keys = List.map Healer_executor.Serializer.encode seeds in
  Alcotest.(check int) "deduplicated"
    (List.length (List.sort_uniq compare keys))
    (List.length keys)

(* ---- seed corpus ---- *)

let test_seed_traces () =
  let traces = Seeds.traces (tgt ()) in
  Alcotest.(check bool) "plenty of traces" true (List.length traces >= 20);
  List.iter
    (fun t ->
      if not (Prog.well_formed t) then Alcotest.fail "trace not well-formed")
    traces

let test_seed_traces_deterministic () =
  let a = Seeds.traces ~seed:3 (tgt ()) and b = Seeds.traces ~seed:3 (tgt ()) in
  Alcotest.(check (list string)) "same traces for same seed"
    (List.map Healer_executor.Serializer.encode a)
    (List.map Healer_executor.Serializer.encode b)

let test_distilled_seeds () =
  let traces = Seeds.traces (tgt ()) in
  let seeds = Seeds.distilled (tgt ()) in
  Alcotest.(check bool) "non-empty" true (List.length seeds > 0);
  (* Distillation output is runnable. *)
  List.iter (fun seed -> ignore (run seed)) seeds;
  (* Each distilled seed is a slice of one trace, so it can never be
     longer than the longest trace. *)
  let max_len ps = List.fold_left (fun acc p -> max acc (Prog.length p)) 0 ps in
  Alcotest.(check bool) "seeds bounded by trace length" true
    (max_len seeds <= max_len traces);
  Alcotest.(check bool) "no trivial seeds" true
    (List.for_all (fun p -> Prog.length p >= 2) seeds)

let suite =
  [
    case "choice weights in range" test_choice_weight_range;
    case "choice coarseness (paper critique)" test_choice_coarseness;
    case "choice resourceless low" test_choice_resourceless_low;
    case "choice dynamic part" test_choice_dynamic_part;
    case "choice select" test_choice_select;
    test_choice_incremental_oracle;
    case "deps: resource flow" test_dependencies_resource_flow;
    case "deps: shared subsystem" test_dependencies_shared_subsystem;
    case "slice runnable" test_slice_runnable;
    case "distill filters + dedups" test_distill_filters_and_dedups;
    case "seed traces" test_seed_traces;
    case "seed traces deterministic" test_seed_traces_deterministic;
    case "distilled seeds" test_distilled_seeds;
  ]
