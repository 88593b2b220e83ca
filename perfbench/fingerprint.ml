(* A campaign's observable outcome as named fields, each a short
   string, so two runs can be compared field by field and a mismatch
   names what diverged. *)

module Bitset = Healer_util.Bitset
module Serializer = Healer_executor.Serializer
module Corpus = Healer_core.Corpus
module Relation_table = Healer_core.Relation_table
module Triage = Healer_core.Triage

type t = (string * string) list

let hex_digest parts =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fuzz ~execs ~coverage ~corpus ~relations ~triage : t =
  let progs = ref [] in
  Corpus.iter (fun p -> progs := Serializer.encode p :: !progs) corpus;
  [
    ("execs", string_of_int execs);
    ("coverage", hex_digest (List.map string_of_int (Bitset.elements coverage)));
    ("corpus", hex_digest (List.rev !progs));
    ( "relations",
      match relations with
      | None -> "none"
      | Some r ->
        hex_digest
          (List.map (fun (i, j) -> Printf.sprintf "%d,%d" i j) (Relation_table.edges r))
    );
    ( "crashes",
      hex_digest
        (List.map (fun (r : Triage.record) -> r.bug_key) (Triage.records triage)) );
  ]

let serve state : t = [ ("digest", Healer_service.Shard_state.digest state) ]

(* The first field whose value differs, or that only one side has. *)
let diverged (a : t) (b : t) =
  let fields =
    List.map fst a @ List.filter (fun f -> not (List.mem_assoc f a)) (List.map fst b)
  in
  List.find_opt (fun f -> List.assoc_opt f a <> List.assoc_opt f b) fields
