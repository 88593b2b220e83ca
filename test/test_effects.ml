(* The effect model: one hand-broken fixture per effect-*/race-*/
   rel-infer-* check ID, golden "the shipped 20-subsystem corpus is
   effect-clean" tests, runtime observed-vs-declared validation, the
   effect-count accounting, and property suites asserting the
   gen/mutate/minimize pipeline never trips the runtime effect
   validator (armed suite-wide by main.ml via [Validate.set true]). *)

module E = Healer_kernel.Effect
module Lock = Healer_kernel.Lock
module Prog = Healer_executor.Prog
module Exec = Healer_executor.Exec
module Target = Healer_syzlang.Target
module Rng = Healer_util.Rng
module D = Healer_util.Diagnostic
module A = Healer_analysis.Analysis
module P = Healer_analysis.Pass
module K = Healer_kernel
open Healer_core
open Helpers

(* ---- fixture models (plain records: nothing below touches the
   process-global slot or race registries) ---- *)

let cls ?guards ~rank name = Lock.make ?guards ~rank name

let has id (fs : E.finding list) =
  List.exists (fun (f : E.finding) -> f.E.check = id) fs

let find_f id (fs : E.finding list) =
  List.find (fun (f : E.finding) -> f.E.check = id) fs

let expect_only id fs =
  Alcotest.(check bool) (id ^ " reported") true (has id fs);
  List.iter
    (fun (f : E.finding) ->
      if f.E.check <> id then
        Alcotest.failf "unexpected check %s (%s)" f.E.check f.E.msg)
    fs

let no_locks = { Lock.classes = []; specs = [] }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A two-handler baseline every broken fixture perturbs: a writer and
   a reader sharing slot "sa" under one guarding class. *)
let clean_effects () =
  {
    E.slots = [ "sa" ];
    especs =
      [
        ("s1", "h_wr", E.spec ~writes:[ "sa" ] ());
        ("s1", "h_rd", E.spec ~reads:[ "sa" ] ());
      ];
  }

let clean_locks () =
  {
    Lock.classes = [ cls ~rank:10 ~guards:[ "sa" ] "a" ];
    specs =
      [
        ("s1", "h_wr", Lock.scoped ~touches:[ "sa" ] [ "a" ]);
        ("s1", "h_rd", Lock.scoped [ "a" ]);
      ];
  }

let test_clean_fixture () =
  Alcotest.(check int) "clean model has no findings" 0
    (List.length (E.check_model ~lock:(clean_locks ()) (clean_effects ())));
  Alcotest.(check int) "and no race candidates" 0
    (List.length (E.races ~lock:(clean_locks ()) (clean_effects ())))

(* ---- effect-* drift fixtures ---- *)

let test_unknown_slot () =
  let m =
    { E.slots = [ "sa" ]; especs = [ ("s", "h", E.spec ~reads:[ "ghost" ] ()) ] }
  in
  expect_only "effect-unknown-slot" (E.check_model ~lock:no_locks m);
  (* The wildcard is vocabulary, not drift. *)
  let m' =
    { E.slots = []; especs = [ ("s", "h", E.spec ~reads:[ E.wildcard ] ()) ] }
  in
  Alcotest.(check int) "wildcard accepted" 0
    (List.length (E.check_model ~lock:no_locks m'))

let test_orphan_spec () =
  let m = { E.slots = [ "sa" ]; especs = [ ("s", "h", E.spec ()) ] } in
  expect_only "effect-orphan-spec"
    (E.check_model ~lock:no_locks ~handlers:[ ("other", "s") ] m);
  (* Without a handler table the check is disabled. *)
  Alcotest.(check int) "no table, no orphan" 0
    (List.length (E.check_model ~lock:no_locks m))

let test_missing_spec () =
  let lock = clean_locks () in
  let m = { E.slots = [ "sa" ]; especs = [] } in
  expect_only "effect-missing-spec" (E.check_model ~lock m);
  let f = find_f "effect-missing-spec" (E.check_model ~lock m) in
  Alcotest.(check string) "subject names the handler" "s1/h_wr" f.E.subject

let test_guard_mismatch () =
  (* The lock spec claims h_wr mutates "sa"; the effect spec only
     reads it. *)
  let m =
    { E.slots = [ "sa" ]; especs = [ ("s1", "h_wr", E.spec ~reads:[ "sa" ] ()) ] }
  in
  expect_only "effect-guard-mismatch" (E.check_model ~lock:(clean_locks ()) m)

(* ---- runtime trace validation (check_trace) ---- *)

let test_trace_clean () =
  let m = clean_effects () in
  Alcotest.(check int) "declared trace validates" 0
    (List.length
       (E.check_trace m ~subsystem:"s1" ~handler:"h_wr" [ (true, "sa") ]));
  (* A write subsumes a read of the same slot. *)
  Alcotest.(check int) "write subsumes read" 0
    (List.length
       (E.check_trace m ~subsystem:"s1" ~handler:"h_wr" [ (false, "sa") ]))

let test_undeclared_read () =
  let m = clean_effects () in
  let fs = E.check_trace m ~subsystem:"s1" ~handler:"h_rd" [ (false, "sb") ] in
  expect_only "effect-undeclared-read" fs;
  (* A spec-less handler must not touch instrumented state at all. *)
  let fs =
    E.check_trace m ~subsystem:"s9" ~handler:"h_nospec" [ (false, "sa") ]
  in
  expect_only "effect-undeclared-read" fs

let test_undeclared_write () =
  let m = clean_effects () in
  (* Reads never license writes. *)
  let fs = E.check_trace m ~subsystem:"s1" ~handler:"h_rd" [ (true, "sa") ] in
  expect_only "effect-undeclared-write" fs

let test_wildcard_covers () =
  Alcotest.(check bool) "fd:* covers fd:sock" true
    (E.covers ~declared:[ E.wildcard ] "fd:sock");
  Alcotest.(check bool) "fd:* does not cover globals" false
    (E.covers ~declared:[ E.wildcard ] "netdevs")

(* ---- race-* lockset fixtures ---- *)

let test_race_unguarded () =
  (* h_rd has no lock spec at all: its lockset is empty. *)
  let lock =
    {
      Lock.classes = [ cls ~rank:10 "a" ];
      specs = [ ("s1", "h_wr", Lock.scoped ~touches:[ "sa" ] [ "a" ]) ];
    }
  in
  let fs = E.races ~lock (clean_effects ()) in
  expect_only "race-unguarded-slot" fs;
  let f = find_f "race-unguarded-slot" fs in
  Alcotest.(check string) "subject names the slot" "state slot \"sa\""
    f.E.subject

let test_race_disjoint () =
  (* Writer under a, reader under b, nothing guards "sa": disjoint. *)
  let lock =
    {
      Lock.classes = [ cls ~rank:10 "a"; cls ~rank:20 "b" ];
      specs =
        [
          ("s1", "h_wr", Lock.scoped [ "a" ]);
          ("s1", "h_rd", Lock.scoped [ "b" ]);
        ];
    }
  in
  expect_only "race-disjoint-locksets" (E.races ~lock (clean_effects ()))

let test_race_order_masked () =
  (* Disjoint locksets a vs b, but class g guards "sa" and the
     declared order graph (via h_ga/h_gb) nests g outside both: the
     race is masked by convention, Info only. *)
  let g = cls ~rank:5 ~guards:[ "sa" ] "g" in
  let lock =
    {
      Lock.classes = [ g; cls ~rank:10 "a"; cls ~rank:20 "b" ];
      specs =
        [
          ("s1", "h_wr", Lock.scoped [ "a" ]);
          ("s1", "h_rd", Lock.scoped [ "b" ]);
          ("s2", "h_ga", Lock.scoped [ "g"; "a" ]);
          ("s2", "h_gb", Lock.scoped [ "g"; "b" ]);
        ];
    }
  in
  expect_only "race-order-masked" (E.races ~lock (clean_effects ()))

let test_race_known_bug () =
  (* Registering the pair in the known-race catalog downgrades it to a
     race-known-bug Info (fixture catalog passed explicitly: the
     global registry stays untouched). *)
  let lock =
    {
      Lock.classes = [ cls ~rank:10 "a" ];
      specs = [ ("s1", "h_wr", Lock.scoped [ "a" ]) ];
    }
  in
  let known = [ { E.kslot = "sa"; parties = [ "h_wr"; "h_rd" ]; bug = "fx" } ] in
  let fs = E.races ~lock ~known (clean_effects ()) in
  expect_only "race-known-bug" fs;
  let f = find_f "race-known-bug" fs in
  Alcotest.(check bool) "names the bug" true (contains f.E.msg "\"fx\"")

(* ---- the shipped model ---- *)

(* Golden: the 20-subsystem corpus effect model is drift-clean, and
   the only race candidates are the registered fixture races. *)
let test_corpus_clean () =
  let handlers =
    List.concat_map
      (fun (sub : K.Subsystem.t) ->
        List.map
          (fun (name, _) -> (name, sub.K.Subsystem.name))
          sub.K.Subsystem.handlers)
      (K.Kernel.subsystems ())
  in
  let fs =
    E.check_model
      ~lock:(K.Kernel.lock_model ())
      ~handlers
      (K.Kernel.effect_model ())
  in
  List.iter
    (fun (f : E.finding) ->
      Alcotest.failf "corpus effect finding: %s: %s: %s" f.E.check f.E.subject
        f.E.msg)
    fs

let test_corpus_races_only_known () =
  let fs =
    E.races
      ~lock:(K.Kernel.lock_model ())
      ~known:(E.registered_races ())
      (K.Kernel.effect_model ())
  in
  List.iter
    (fun (f : E.finding) ->
      if f.E.check <> "race-known-bug" && f.E.check <> "race-order-masked" then
        Alcotest.failf "unexpected corpus race: %s: %s: %s" f.E.check
          f.E.subject f.E.msg)
    fs;
  (* Both deliberately-unguarded fixture races are visible: the
     lock-free packet stats read and the mount-busy window. *)
  List.iter
    (fun bug ->
      Alcotest.(check bool)
        (bug ^ " race flagged") true
        (List.exists
           (fun (f : E.finding) ->
             f.E.check = "race-known-bug"
             && contains f.E.msg ("\"" ^ bug ^ "\""))
           fs))
    [ "packet_seq_show"; "legitimize_mnt" ]

(* And stays clean through the Diagnostic adapter + full analysis: no
   effect drift, no race warnings — candidates surface as Info. *)
let test_corpus_clean_analysis () =
  let ds = A.run (A.of_kernel ()) in
  let effecty =
    List.filter
      (fun (d : D.t) -> String.starts_with ~prefix:"effect-" d.D.check)
      ds
  in
  Alcotest.(check int) "no effect-* diagnostics on the corpus" 0
    (List.length effecty);
  let race_warnings =
    List.filter
      (fun (d : D.t) ->
        String.starts_with ~prefix:"race-" d.D.check
        && d.D.severity <> D.Info)
      ds
  in
  Alcotest.(check int) "no race warnings on the corpus" 0
    (List.length race_warnings);
  Alcotest.(check bool) "known races surface as Info" true
    (List.exists (fun (d : D.t) -> d.D.check = "race-known-bug") ds)

let test_catalog () =
  let ids =
    List.concat_map
      (fun (p : P.t) -> List.map (fun (id, _, _) -> id) p.P.checks)
      [
        Healer_analysis.Effects.pass; Healer_analysis.Races.pass;
        Healer_analysis.Rel_infer.pass;
      ]
  in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " in catalog") true (List.mem id ids))
    [
      "effect-unknown-slot"; "effect-orphan-spec"; "effect-missing-spec";
      "effect-guard-mismatch"; "effect-undeclared-read";
      "effect-undeclared-write"; "race-unguarded-slot";
      "race-disjoint-locksets"; "race-order-masked"; "race-known-bug";
      "rel-infer-new-edge"; "rel-infer-unjustified"; "rel-infer-summary";
    ]

(* ---- relation inference fixtures ---- *)

(* Run only the inference pass on a standalone description whose
   effect model we control. *)
let infer src em =
  A.run
    ~passes:[ Healer_analysis.Rel_infer.pass ]
    { (A.of_source ~name:"fixture" src) with P.effects = Some em }

let dhas check ds = List.exists (fun (d : D.t) -> d.D.check = check) ds

let dfind check ds = List.find (fun (d : D.t) -> d.D.check = check) ds

let test_infer_new_edge () =
  (* wr and rd share slot "s" but no resource flows between them: the
     static seed misses the edge, the effect model predicts it. *)
  let src = "wr(v int32)\nrd(v int32)\n" in
  let em =
    {
      E.slots = [ "s" ];
      especs =
        [
          ("x", "wr", E.spec ~writes:[ "s" ] ());
          ("x", "rd", E.spec ~reads:[ "s" ] ());
        ];
    }
  in
  let ds = infer src em in
  Alcotest.(check bool) "new edge reported" true (dhas "rel-infer-new-edge" ds);
  let d = dfind "rel-infer-new-edge" ds in
  Alcotest.(check string) "reported per writer" "handler wr" d.D.subject;
  Alcotest.(check bool) "lists the reader and slot" true
    (contains d.D.message "rd via \"s\"")

let test_infer_unjustified () =
  (* mk creates the resource use consumes — a static edge — but their
     declared effects share no state slot. *)
  let src = "resource rr[int32]\nmk(z const[0]) rr\nuse(f rr)\n" in
  let em =
    {
      E.slots = [ "sa"; "sb" ];
      especs =
        [
          ("x", "mk", E.spec ~writes:[ "sa" ] ());
          ("x", "use", E.spec ~reads:[ "sb" ] ());
        ];
    }
  in
  let ds = infer src em in
  Alcotest.(check bool) "unjustified edge reported" true
    (dhas "rel-infer-unjustified" ds);
  let d = dfind "rel-infer-unjustified" ds in
  Alcotest.(check string) "subject names the pair" "relation mk -> use"
    d.D.subject

let test_infer_summary () =
  let ds = A.run (A.of_kernel ()) in
  let d = dfind "rel-infer-summary" ds in
  Alcotest.(check bool) "summary carries the diff counts" true
    (contains d.D.message "corroborated")

let test_predicted_edges_shape () =
  let em = clean_effects () in
  Alcotest.(check (list (triple string string string)))
    "writer -> reader via slot"
    [ ("h_wr", "h_rd", "sa") ]
    (E.predicted_edges em);
  (* Wildcard accesses predict nothing. *)
  let em' =
    {
      E.slots = [];
      especs =
        [
          ("s", "h1", E.spec ~writes:[ E.wildcard ] ());
          ("s", "h2", E.spec ~reads:[ E.wildcard ] ());
        ];
    }
  in
  Alcotest.(check int) "no wildcard edges" 0
    (List.length (E.predicted_edges em'))

(* ---- effect-count accounting ---- *)

(* An open/read pair touches the vfs "fs" slot: the per-slot counts
   folded from the kernel's access log must include it. *)
let test_slot_counts () =
  let kernel = boot () in
  let k', result =
    Exec.run kernel
      (prog
         [
           call "open" [ s "/tmp/f1"; i 0x40L; i 0x1ffL ];
           call "read" [ r 0; buf 16; iv 16 ];
           call "close" [ r 0 ];
         ])
  in
  Alcotest.(check bool) "no crash" true (result.Exec.crash = None);
  let counts = K.Kernel.effect_counts k' in
  Alcotest.(check bool) "fs slot counted" true
    (List.exists (fun (slot, rd, wr) -> slot = "fs" && rd + wr > 0) counts)

(* ---- runtime validation properties ----

   main.ml arms Validate.set true for the whole binary: every Exec.run
   below records each call's observed slot accesses and raises
   Effect.Violation if one escapes the handler's declared spec. The properties assert
   observed ⊆ declared across the whole pipeline. *)

let gen_prog seed =
  let rng = Rng.create seed in
  Gen.generate rng (tgt ())
    ~select:(fun ~sub:_ -> Rng.int rng (Target.n_syscalls (tgt ())))
    ()

let test_validated_generation =
  qcheck ~count:100 "generated programs execute within declared effects"
    QCheck2.Gen.small_int (fun seed ->
      Alcotest.(check bool) "validation armed" true (K.Validate.enabled ());
      ignore (run (gen_prog seed));
      true)

let test_validated_mutation =
  qcheck ~count:60 "mutated programs execute within declared effects"
    QCheck2.Gen.small_int (fun seed ->
      let rng = Rng.create (seed + 2_000_000) in
      let select ~sub:_ = Rng.int rng (Target.n_syscalls (tgt ())) in
      let p = ref (Gen.generate rng (tgt ()) ~select ()) in
      for _ = 1 to 5 do
        p := Mutate.mutate rng (tgt ()) ~select !p;
        ignore (run !p)
      done;
      true)

let test_validated_minimization =
  qcheck ~count:25 "minimized programs execute within declared effects"
    QCheck2.Gen.small_int (fun seed ->
      let p = gen_prog (seed + 13) in
      let result = run p in
      if result.Exec.crash <> None then true
      else begin
        let cov =
          Array.map (fun (c : Exec.call_result) -> c.Exec.cov) result.Exec.calls
        in
        let last = Prog.length p - 1 in
        let new_cov = Array.make (Prog.length p) [] in
        new_cov.(last) <- cov.(last);
        let pc = { Prog_cov.prog = p; cov; new_cov } in
        let exec q = snd (Exec.run (boot ()) q) in
        ignore (Minimize.minimize ~target:(tgt ()) ~exec pc);
        true
      end)

(* And the seed corpus executes violation-free. *)
let test_seed_corpus_validates () =
  Alcotest.(check bool) "validation armed" true (K.Validate.enabled ());
  List.iter
    (fun p -> ignore (run p))
    (Seeds.traces (tgt ()) @ Seeds.distilled (tgt ()))

let suite =
  [
    case "clean fixture" test_clean_fixture;
    case "effect-unknown-slot" test_unknown_slot;
    case "effect-orphan-spec" test_orphan_spec;
    case "effect-missing-spec" test_missing_spec;
    case "effect-guard-mismatch" test_guard_mismatch;
    case "trace: clean + write subsumes read" test_trace_clean;
    case "effect-undeclared-read" test_undeclared_read;
    case "effect-undeclared-write" test_undeclared_write;
    case "wildcard coverage" test_wildcard_covers;
    case "race-unguarded-slot" test_race_unguarded;
    case "race-disjoint-locksets" test_race_disjoint;
    case "race-order-masked" test_race_order_masked;
    case "race-known-bug" test_race_known_bug;
    case "corpus model clean" test_corpus_clean;
    case "corpus races only known" test_corpus_races_only_known;
    case "corpus clean via analysis" test_corpus_clean_analysis;
    case "check catalog" test_catalog;
    case "rel-infer-new-edge" test_infer_new_edge;
    case "rel-infer-unjustified" test_infer_unjustified;
    case "rel-infer-summary" test_infer_summary;
    case "predicted edges shape" test_predicted_edges_shape;
    case "effect slot counts" test_slot_counts;
    case "seed corpus validates" test_seed_corpus_validates;
    test_validated_generation;
    test_validated_mutation;
    test_validated_minimization;
  ]
