module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Ty = Healer_syzlang.Ty
module Field = Healer_syzlang.Field
module Prog = Healer_executor.Prog

type signature = {
  resources : string list;  (* kinds used in any position/direction *)
  flagsets : string list;
  has_vma : bool;
  has_buffer : bool;
}

type t = {
  n : int;
  p0 : int array array;  (* normalized static part *)
  p1_raw : int array array;  (* adjacency counters *)
  mutable vmax : int;  (* largest counter; they only grow *)
  cum : int array option array;
      (* per-row cumulative select weights, built lazily and dropped
         when the row's counters or [vmax] change *)
}

let rec collect_sig target acc (ty : Ty.t) =
  match ty with
  | Ty.Res { kind; _ } -> { acc with resources = kind :: acc.resources }
  | Ty.Flags name -> { acc with flagsets = name :: acc.flagsets }
  | Ty.Vma -> { acc with has_vma = true }
  | Ty.Buffer _ -> { acc with has_buffer = true }
  | Ty.Ptr { elem; _ } -> collect_sig target acc elem
  | Ty.Array { elem; _ } -> collect_sig target acc elem
  | Ty.Struct_ref name ->
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      acc
      (Target.struct_fields target name)
  | Ty.Union_ref name ->
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      acc
      (Target.union_fields target name)
  | Ty.Int _ | Ty.Const _ | Ty.Len _ | Ty.Proc _ | Ty.Str _ | Ty.Filename _ ->
    acc

let signature_of target (c : Syscall.t) =
  let base =
    { resources = (match c.Syscall.ret with Some r -> [ r ] | None -> []);
      flagsets = []; has_vma = false; has_buffer = false }
  in
  let s =
    List.fold_left
      (fun acc (f : Field.t) -> collect_sig target acc f.Field.fty)
      base c.Syscall.args
  in
  {
    s with
    resources = List.sort_uniq String.compare s.resources;
    flagsets = List.sort_uniq String.compare s.flagsets;
  }

let common_count xs ys = List.length (List.filter (fun x -> List.mem x ys) xs)

(* Per the paper, P0 weighs common type *classes*, not specific kinds:
   any shared resource type contributes the flat weight 10, vma 5 —
   which is exactly why the choice table cannot express influence
   relations (read(fd) before listen(sock) scores like
   KVM_CREATE_VCPU before KVM_RUN). *)
let raw_p0 si sj =
  (10 * if si.resources <> [] && sj.resources <> [] then 1 else 0)
  + (5 * if si.has_vma && sj.has_vma then 1 else 0)
  + (2 * if common_count si.flagsets sj.flagsets > 0 then 1 else 0)
  + (1 * if si.has_buffer && sj.has_buffer then 1 else 0)

(* Normalize a raw matrix into [10, 1000] by the paper's description. *)
let normalize raw =
  let n = Array.length raw in
  let vmax = Array.fold_left (fun m row -> Array.fold_left max m row) 0 raw in
  let out = Array.make_matrix n n 10 in
  if vmax > 0 then
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        out.(i).(j) <- 10 + (raw.(i).(j) * 990 / vmax)
      done
    done;
  out

let create target =
  let calls = Target.syscalls target in
  let n = Array.length calls in
  let sigs = Array.map (signature_of target) calls in
  let raw = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then raw.(i).(j) <- raw_p0 sigs.(i) sigs.(j)
    done
  done;
  {
    n;
    p0 = normalize raw;
    p1_raw = Array.make_matrix n n 0;
    vmax = 0;
    cum = Array.make n None;
  }

let note_corpus_program t (p : Prog.t) =
  let vmax0 = t.vmax in
  for k = 0 to Prog.length p - 2 do
    let i = (Prog.call p k).Prog.syscall.Syscall.id in
    let j = (Prog.call p (k + 1)).Prog.syscall.Syscall.id in
    if i < t.n && j < t.n then begin
      let v = t.p1_raw.(i).(j) + 1 in
      t.p1_raw.(i).(j) <- v;
      if v > t.vmax then t.vmax <- v;
      t.cum.(i) <- None
    end
  done;
  (* Every P1 entry is scaled by [vmax], so a rise stales every row. *)
  if t.vmax > vmax0 then Array.fill t.cum 0 t.n None

(* [P1]: a counter normalized into [10, 1000] by the current maximum,
   exactly the entry normalizing the whole matrix would give. *)
let p1 t raw = if t.vmax > 0 then 10 + (raw * 990 / t.vmax) else 10

let static_weight t i j = t.p0.(i).(j)
let weight t i j = t.p0.(i).(j) * p1 t t.p1_raw.(i).(j) / 1000

(* Built lazily per biased row; [select] then draws in O(log n) with no
   per-pick allocation. *)
let cum_row t b =
  match t.cum.(b) with
  | Some row -> row
  | None ->
    let row = Array.make t.n 0 in
    let p0b = t.p0.(b) and rawb = t.p1_raw.(b) in
    let acc = ref 0 in
    for j = 0 to t.n - 1 do
      acc := !acc + max 1 (p0b.(j) * p1 t rawb.(j) / 1000);
      row.(j) <- !acc
    done;
    t.cum.(b) <- Some row;
    row

let select rng t ~bias =
  match bias with
  | None -> Rng.int rng t.n
  | Some b when b < 0 || b >= t.n -> Rng.int rng t.n
  | Some b ->
    let row = cum_row t b in
    (* Same single draw as [Rng.weighted] over the per-j weights, so
       picks are bit-identical to the old list-based sampling. *)
    let target = Rng.int rng row.(t.n - 1) in
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if row.(mid) > target then hi := mid else lo := mid + 1
    done;
    !lo
