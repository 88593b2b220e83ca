module Bitset = Healer_util.Bitset
module Prog = Healer_executor.Prog
module Serializer = Healer_executor.Serializer
module Target = Healer_syzlang.Target
module Coverage = Healer_kernel.Coverage
module Risk = Healer_kernel.Risk
module Relation_table = Healer_core.Relation_table
module Triage = Healer_core.Triage

exception Malformed of string

type t = {
  n_syscalls : int;
  relations : Relation_table.t;
  coverage : Bitset.t;
  corpus : (string * Prog.t) list;
  crashes : Triage.record list;
  execs : (int * int) list;
}

(* Corpus entries dedup on the fuzzer corpus's own key, a 16-byte
   digest of the canonical encoding; the full serialized form is
   recomputed only when a state crosses the wire, not retained per
   entry in memory. *)
let corpus_key = Healer_core.Corpus.key

let empty ~n_syscalls =
  {
    n_syscalls;
    relations = Relation_table.create n_syscalls;
    coverage = Bitset.create ();
    corpus = [];
    crashes = [];
    execs = [];
  }

let of_target target = empty ~n_syscalls:(Target.n_syscalls target)

(* Canonical component orders: corpus by digest key, crashes by
   signature (their dedup unit), counters by shard. *)
let sort_corpus c =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) c

let sort_crashes cs =
  List.sort
    (fun (a : Triage.record) b -> String.compare a.Triage.signature b.Triage.signature)
    cs

(* Duplicate shard keys collapse to their max, so canonicalization is
   a true normalizer and the G-counter laws hold for any input. *)
let sort_execs e =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, n) ->
      match Hashtbl.find_opt tbl s with
      | Some m when m >= n -> ()
      | _ -> Hashtbl.replace tbl s n)
    e;
  List.sort compare (Hashtbl.fold (fun s n acc -> (s, n) :: acc) tbl [])

let canonical t =
  {
    t with
    corpus = sort_corpus t.corpus;
    crashes = sort_crashes (Triage.merge_records [ t.crashes ]);
    execs = sort_execs t.execs;
  }

let merge a b =
  if a.n_syscalls <> b.n_syscalls then
    invalid_arg "Shard_state.merge: table size mismatch";
  let coverage = Bitset.copy a.coverage in
  Bitset.union_into ~dst:coverage b.coverage;
  let execs =
    let ea = sort_execs a.execs and eb = sort_execs b.execs in
    let shards = List.sort_uniq compare (List.map fst ea @ List.map fst eb) in
    List.map
      (fun s ->
        let get l = match List.assoc_opt s l with Some n -> n | None -> 0 in
        (s, max (get ea) (get eb)))
      shards
  in
  {
    n_syscalls = a.n_syscalls;
    relations = Relation_table.merge a.relations b.relations;
    coverage;
    corpus = sort_corpus (a.corpus @ b.corpus);
    crashes = sort_crashes (Triage.merge_records [ a.crashes; b.crashes ]);
    execs;
  }

let total_execs t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.execs

(* ---- watermarks and diffs ---- *)

type watermark = {
  w_relations : int;
  w_coverage : int;
  w_corpus : int;
  w_crashes : int;
  w_execs : int;
}

let watermark t =
  {
    w_relations = Relation_table.count t.relations;
    w_coverage = Bitset.count t.coverage;
    w_corpus = List.length t.corpus;
    w_crashes = List.length t.crashes;
    w_execs = total_execs t;
  }

let is_empty t =
  Relation_table.count t.relations = 0
  && Bitset.count t.coverage = 0
  && t.corpus = [] && t.crashes = [] && t.execs = []

(* A diff is itself a state holding only the components of [t] that
   [base] lacks (or, for crash records and counters, strictly
   improves on): merging it into [base] reconstructs [merge base t]
   exactly — the qcheck law the service suite pins. Bytes shipped are
   O(new work), not O(total state). *)
let diff ~since:base t =
  if base.n_syscalls <> t.n_syscalls then
    invalid_arg "Shard_state.diff: table size mismatch";
  let relations = Relation_table.create t.n_syscalls in
  Relation_table.iter_new ~base:base.relations
    (fun i j -> ignore (Relation_table.set relations i j))
    t.relations;
  let coverage = Bitset.create () in
  Bitset.iter_diff ~base:base.coverage (Bitset.add coverage) t.coverage;
  let base_keys = Hashtbl.create (List.length base.corpus) in
  List.iter (fun (k, _) -> Hashtbl.replace base_keys k ()) base.corpus;
  let corpus =
    List.filter (fun (k, _) -> not (Hashtbl.mem base_keys k)) t.corpus
  in
  (* Keep the preferred record per signature: the raw base may hold
     duplicates, and diffing against a worse duplicate would ship
     records the canonical merge already owns. *)
  let base_crashes = Hashtbl.create (List.length base.crashes) in
  List.iter
    (fun (r : Triage.record) ->
      match Hashtbl.find_opt base_crashes r.Triage.signature with
      | Some prev when Triage.preferred prev r -> ()
      | _ -> Hashtbl.replace base_crashes r.Triage.signature r)
    base.crashes;
  let crashes =
    List.filter
      (fun (r : Triage.record) ->
        match Hashtbl.find_opt base_crashes r.Triage.signature with
        | None -> true
        | Some prev -> not (Triage.preferred prev r))
      t.crashes
  in
  let base_execs = sort_execs base.execs in
  let execs =
    List.filter
      (fun (s, n) ->
        match List.assoc_opt s base_execs with
        | Some m -> n > m
        | None -> true)
      (sort_execs t.execs)
  in
  { n_syscalls = t.n_syscalls; relations; coverage; corpus; crashes; execs }

(* ---- canonical serialization ---- *)

let put_crash buf (r : Triage.record) =
  Wire.put_str buf r.Triage.bug_key;
  Wire.put_str buf r.Triage.signature;
  Wire.put_str buf (Risk.to_string r.Triage.risk);
  Wire.put_float buf r.Triage.first_found;
  Wire.put_str buf (Serializer.encode r.Triage.reproducer)

let put_state buf t =
  let t = canonical t in
  Wire.put_int buf t.n_syscalls;
  let edges = Relation_table.edges t.relations in
  Wire.put_int buf (List.length edges);
  List.iter
    (fun (i, j) ->
      Wire.put_int buf i;
      Wire.put_int buf j)
    edges;
  let cov = Bitset.elements t.coverage in
  Wire.put_int buf (List.length cov);
  (* Ascending ids, delta-encoded: small varints. *)
  ignore
    (List.fold_left
       (fun prev id ->
         Wire.put_int buf (id - prev);
         id)
       0 cov);
  Wire.put_int buf (List.length t.corpus);
  List.iter (fun (_, p) -> Wire.put_str buf (Serializer.encode p)) t.corpus;
  Wire.put_int buf (List.length t.crashes);
  List.iter (put_crash buf) t.crashes;
  Wire.put_int buf (List.length t.execs);
  List.iter
    (fun (shard, n) ->
      Wire.put_int buf shard;
      Wire.put_int buf n)
    t.execs

let to_string t =
  let buf = Buffer.create 4096 in
  put_state buf t;
  Buffer.contents buf

let get_crash target s pos =
  let bug_key = Wire.get_str s pos in
  let signature = Wire.get_str s pos in
  let risk_name = Wire.get_str s pos in
  let risk =
    match Risk.of_string risk_name with
    | Some r -> r
    | None -> raise (Malformed (Printf.sprintf "unknown risk class %S" risk_name))
  in
  let first_found = Wire.get_float s pos in
  let enc = Wire.get_str s pos in
  let reproducer =
    try Serializer.decode target enc
    with Serializer.Malformed msg -> raise (Malformed ("bad reproducer: " ^ msg))
  in
  {
    Triage.bug_key;
    risk;
    signature;
    first_found;
    reproducer;
    repro_len = Prog.length reproducer;
  }

let get_state target s pos =
  let wrap f = try f () with Wire.Malformed msg -> raise (Malformed msg) in
  wrap @@ fun () ->
  let n_syscalls = Wire.get_int s pos in
  if n_syscalls <> Target.n_syscalls target then
    raise
      (Malformed
         (Printf.sprintf "state for a %d-syscall target, expected %d" n_syscalls
            (Target.n_syscalls target)));
  let relations = Relation_table.create n_syscalls in
  let n_edges = Wire.get_int s pos in
  for _ = 1 to n_edges do
    let i = Wire.get_int s pos in
    let j = Wire.get_int s pos in
    if i >= n_syscalls || j >= n_syscalls then
      raise (Malformed (Printf.sprintf "relation (%d, %d) out of range" i j));
    ignore (Relation_table.set relations i j)
  done;
  let coverage = Bitset.create () in
  let n_cov = Wire.get_int s pos in
  (* Every id must be an allocated branch id: a hostile one would size
     the bitset to it, and a large delta would overflow the sum. *)
  let limit = Coverage.total_allocated () in
  let prev = ref 0 in
  for _ = 1 to n_cov do
    let d = Wire.get_int s pos in
    if d >= limit - !prev then
      raise (Malformed (Printf.sprintf "coverage id %d+%d out of range" !prev d));
    prev := !prev + d;
    Bitset.add coverage !prev
  done;
  let n_corpus = Wire.get_int s pos in
  let corpus = ref [] in
  for _ = 1 to n_corpus do
    let enc = Wire.get_str s pos in
    let prog =
      try Serializer.decode target enc
      with Serializer.Malformed msg -> raise (Malformed ("bad program: " ^ msg))
    in
    (* Re-key on the canonical encoding in case the stored bytes were
       not (the key is the dedup unit). *)
    corpus := (corpus_key prog, prog) :: !corpus
  done;
  let n_crashes = Wire.get_int s pos in
  let crashes = ref [] in
  for _ = 1 to n_crashes do
    crashes := get_crash target s pos :: !crashes
  done;
  let n_execs = Wire.get_int s pos in
  let execs = ref [] in
  for _ = 1 to n_execs do
    let shard = Wire.get_int s pos in
    let n = Wire.get_int s pos in
    execs := (shard, n) :: !execs
  done;
  canonical
    {
      n_syscalls;
      relations;
      coverage;
      corpus = !corpus;
      crashes = !crashes;
      execs = !execs;
    }

let of_string target s =
  let pos = ref 0 in
  let t = get_state target s pos in
  if !pos <> String.length s then raise (Malformed "trailing bytes");
  t

let equal a b = String.equal (to_string a) (to_string b)
let digest t = Digest.to_hex (Digest.string (to_string t))

(* ---- worker deltas ---- *)

type delta = { shard : int; epoch : int; d_execs : int; outcome : t }

let apply g (d : delta) =
  let prev = match List.assoc_opt d.shard g.execs with Some n -> n | None -> 0 in
  let contrib = { d.outcome with execs = [ (d.shard, prev + d.d_execs) ] } in
  merge g contrib

let put_delta buf d =
  Wire.put_int buf d.shard;
  Wire.put_int buf d.epoch;
  Wire.put_int buf d.d_execs;
  put_state buf { d.outcome with execs = [] }

let delta_to_string d =
  let buf = Buffer.create 4096 in
  put_delta buf d;
  Buffer.contents buf

let delta_of_string target s =
  let wrap f = try f () with Wire.Malformed msg -> raise (Malformed msg) in
  wrap @@ fun () ->
  let pos = ref 0 in
  let shard = Wire.get_int s pos in
  let epoch = Wire.get_int s pos in
  let d_execs = Wire.get_int s pos in
  let outcome = of_string target (Wire.get_all s pos) in
  { shard; epoch; d_execs; outcome }
