type fd_kind = ..
type fd_kind += Dead

type fd_entry = {
  fd : int;
  mutable kind : fd_kind;
  mutable refs : int;
  mutable closed : bool;
}

type global = ..

type access =
  | Acquire of string
  | Release of string
  | Read of int
  | Write of int

type t = {
  kversion : Version.t;
  mutable next_fd : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable ops : int;
  globals : (string, global) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
  (* Every lock and slot access since boot, newest first; recorded
     only while [Validate] is armed. *)
  mutable log : access list;
}

let create ~version =
  {
    kversion = version;
    next_fd = 3;
    fds = Hashtbl.create 16;
    ops = 0;
    globals = Hashtbl.create 16;
    counters = Hashtbl.create 16;
    log = [];
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

(* ---- the access log ----

   Called from [Ctx.with_lock] and the instrumented subsystem
   accessors on every execution: one flag test while validation is
   off. Results never depend on the log. *)

let record_acquire t cls = if Validate.enabled () then t.log <- Acquire cls :: t.log
let record_release t cls = if Validate.enabled () then t.log <- Release cls :: t.log
let record_read t slot = if Validate.enabled () then t.log <- Read slot :: t.log
let record_write t slot = if Validate.enabled () then t.log <- Write slot :: t.log
let log t = t.log
