(* Program-corpus validation: the [Healer_analysis] face of the
   executor-level validator ([Healer_executor.Progcheck]).

   The engine lives down in [Healer_executor] so the generation /
   mutation / serialization pipeline can enforce it without a
   dependency cycle; this module adapts it to the analyzer workflow —
   validating whole persisted corpora, summarizing per-check counts and
   rendering the JSON report `healer analyze --prog` emits. *)

module P = Healer_executor.Progcheck
module Prog = Healer_executor.Prog
module Target = Healer_syzlang.Target

let checks = P.checks

(* All diagnostics over a corpus of named programs, sorted. [src]
   names each program in positions (e.g. "corpus.db#3"). *)
let validate target (progs : (string option * Prog.t) list) =
  List.concat_map (fun (src, p) -> P.check ?src target p) progs
  |> List.sort Diagnostic.compare

(* Per-check occurrence counts in catalog order, zero entries
   omitted. *)
let count_by_check (ds : Diagnostic.t list) =
  List.filter_map
    (fun (id, _, _) ->
      match
        List.length
          (List.filter (fun (d : Diagnostic.t) -> String.equal d.Diagnostic.check id) ds)
      with
      | 0 -> None
      | n -> Some (id, n))
    checks

(* The `healer analyze --prog --json` document: the description
   report's envelope plus a program count and per-check counts. *)
let report_to_json ~name ~programs (ds : Diagnostic.t list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"target\":\"%s\",\"programs\":%d,\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"checks\":["
       (Diagnostic.json_escape name)
       programs
       (Diagnostic.count Diagnostic.Error ds)
       (Diagnostic.count Diagnostic.Warning ds)
       (Diagnostic.count Diagnostic.Info ds));
  List.iteri
    (fun i (id, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"check\":\"%s\",\"count\":%d}"
           (Diagnostic.json_escape id) n))
    (count_by_check ds);
  Buffer.add_string buf "],\"diagnostics\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Diagnostic.to_json d))
    ds;
  Buffer.add_string buf "]}";
  Buffer.contents buf
