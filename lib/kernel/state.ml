type fd_kind = ..
type fd_kind += Dead

type fd_entry = {
  fd : int;
  mutable kind : fd_kind;
  mutable refs : int;
  mutable closed : bool;
}

type global = ..

type t = {
  kversion : Version.t;
  mutable next_fd : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable ops : int;
  globals : (string, global) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  (* Lock-acquisition counters, indexed by [Lock]'s dense counter
     slots. A plain int array keeps the per-acquire hook at an array
     increment; grown on demand. *)
  mutable lock_counts : int array;
  (* Effect-access counters (one read + one write counter per [Effect]
     slot, same dense-array scheme) and, under debug validation, the
     current call's observed access trace (encoded [slot*2 + is_write],
     innermost-last). *)
  mutable eff_reads : int array;
  mutable eff_writes : int array;
  mutable eff_trace : int list;
}

let create ~version =
  {
    kversion = version;
    next_fd = 3;
    fds = Hashtbl.create 16;
    ops = 0;
    globals = Hashtbl.create 16;
    counters = Hashtbl.create 16;
    lock_counts = [||];
    eff_reads = [||];
    eff_writes = [||];
    eff_trace = [];
  }

let version t = t.kversion

let tick t =
  t.ops <- t.ops + 1;
  t.ops

let now t = t.ops

let alloc_fd t kind =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  let entry = { fd; kind; refs = 1; closed = false } in
  Hashtbl.replace t.fds fd entry;
  entry

let lookup_fd_raw t fd = Hashtbl.find_opt t.fds fd

let lookup_fd t fd =
  match lookup_fd_raw t fd with
  | Some e when not e.closed -> Some e
  | Some _ | None -> None

let close_fd t fd =
  match lookup_fd t fd with
  | None -> false
  | Some e ->
    e.refs <- e.refs - 1;
    if e.refs <= 0 then e.closed <- true;
    true

let dup_fd t fd =
  match lookup_fd t fd with
  | None -> None
  | Some e ->
    e.refs <- e.refs + 1;
    let fd' = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    (* The duplicated number aliases the same entry record; lookups on
       either number reach the same object. *)
    Hashtbl.replace t.fds fd' e;
    Some fd'

let live_fds t =
  Hashtbl.fold (fun fd e acc -> if e.closed then acc else (fd, e) :: acc) t.fds []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let exists_fd t pred =
  Hashtbl.fold (fun _ e acc -> acc || ((not e.closed) && pred e)) t.fds false

let set_global t name g = Hashtbl.replace t.globals name g
let global t name = Hashtbl.find_opt t.globals name

let incr_counter t name =
  let v = (match Hashtbl.find_opt t.counters name with Some v -> v | None -> 0) + 1 in
  Hashtbl.replace t.counters name v;
  v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some v -> v | None -> 0

let set_counter t name v = Hashtbl.replace t.counters name v

let bump_lock t slot =
  let n = Array.length t.lock_counts in
  if slot >= n then begin
    let a = Array.make (max 16 (max (slot + 1) (2 * n))) 0 in
    Array.blit t.lock_counts 0 a 0 n;
    t.lock_counts <- a
  end;
  let a = t.lock_counts in
  Array.unsafe_set a slot (Array.unsafe_get a slot + 1)

let lock_slot_counts t =
  let out = ref [] in
  Array.iteri (fun i n -> if n > 0 then out := (i, n) :: !out) t.lock_counts;
  List.rev !out

(* ---- effect-access recording ----

   Called from the instrumented subsystem accessors: an array
   increment, plus a trace cons under validation. Results never
   depend on it. *)

let grown a slot =
  let n = Array.length a in
  if slot < n then a
  else begin
    let a' = Array.make (max 16 (max (slot + 1) (2 * n))) 0 in
    Array.blit a 0 a' 0 n;
    a'
  end

let record_read t slot =
  let a = grown t.eff_reads slot in
  t.eff_reads <- a;
  Array.unsafe_set a slot (Array.unsafe_get a slot + 1);
  if Effect.validate_enabled () then t.eff_trace <- (slot * 2) :: t.eff_trace

let record_write t slot =
  let a = grown t.eff_writes slot in
  t.eff_writes <- a;
  Array.unsafe_set a slot (Array.unsafe_get a slot + 1);
  if Effect.validate_enabled () then
    t.eff_trace <- ((slot * 2) + 1) :: t.eff_trace

let reset_effect_trace t = t.eff_trace <- []

let effect_trace t =
  List.rev_map (fun e -> (e land 1 = 1, e asr 1)) t.eff_trace

let effect_slot_counts t =
  let get a i = if i < Array.length a then Array.unsafe_get a i else 0 in
  let n = max (Array.length t.eff_reads) (Array.length t.eff_writes) in
  let out = ref [] in
  for i = n - 1 downto 0 do
    let r = get t.eff_reads i and w = get t.eff_writes i in
    if r > 0 || w > 0 then out := (i, r, w) :: !out
  done;
  !out
