module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall

type t = {
  st : State.t;
  san : Sanitizer.config;
  features : string list;
}

(* Subsystem list: extended as subsystems are implemented. Order
   matters only for description concatenation (resource declarations
   must precede uses, so [vfs] comes first). *)
let all_subsystems =
  lazy
    (let subs =
       [
         Vfs.sub; Memfd.sub; Sock.sub; Kvm.sub; Tty.sub; Fbdev.sub; Rdma.sub;
         Uring.sub; Blockdev.sub; Sock_misc.sub; Netdev.sub; Netlink.sub;
         Jfs.sub;
         Mounts.sub; Vivid.sub; Usb.sub; Ipc.sub; Bpf.sub; Inotify.sub;
         Compat.sub;
       ]
     in
     List.iter Subsystem.register subs;
     Subsystem.registered ())

let subsystems () = Lazy.force all_subsystems

(* The full description corpus, one subsystem after another. Line
   numbers in the concatenation are resolvable back to a subsystem via
   [locate_line]. *)
let source () =
  String.concat "\n"
    (List.map (fun (s : Subsystem.t) -> s.descriptions) (subsystems ()))

let count_lines s =
  1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* (subsystem, first global line, line count) per description block,
   sorted by start line — diagnostics resolve lines by binary search,
   like [Coverage.region_name] does for branch ids. *)
let line_index =
  lazy
    (let rec build start = function
       | [] -> []
       | (s : Subsystem.t) :: rest ->
         let n = count_lines s.descriptions in
         (s.name, start, n) :: build (start + n) rest
     in
     Array.of_list (build 1 (subsystems ())))

let locate_line global =
  let index = Lazy.force line_index in
  (* Greatest block whose start is <= global. *)
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let _, start, _ = index.(mid) in
      if start <= global then search (mid + 1) hi (Some index.(mid))
      else search lo (mid - 1) best
  in
  match search 0 (Array.length index - 1) None with
  | Some (name, start, n) when global < start + n ->
    Some (name, global - start + 1)
  | Some _ | None -> None

let target_memo = ref None

let target () =
  match !target_memo with
  | Some t -> t
  | None ->
    let t = Target.of_string ~name:"healer-sim" (source ()) in
    target_memo := Some t;
    t

let handler_table =
  lazy
    (let tbl = Hashtbl.create 256 in
     List.iter
       (fun (s : Subsystem.t) ->
         List.iter
           (fun (name, h) ->
             if Hashtbl.mem tbl name then
               invalid_arg ("Kernel: duplicate handler for " ^ name);
             Hashtbl.add tbl name h)
           s.handlers)
       (subsystems ());
     tbl)

let subsystem_index =
  lazy
    (let tbl = Hashtbl.create 256 in
     List.iter
       (fun (s : Subsystem.t) ->
         List.iter (fun (name, _) -> Hashtbl.replace tbl name s.name) s.handlers)
       (subsystems ());
     tbl)

let subsystem_of name =
  match Hashtbl.find_opt (Lazy.force subsystem_index) name with
  | Some s -> s
  | None -> "?"

(* Subsystems create their state on first touch (see subsystem.mli),
   so a boot is only the empty state tables. *)
let boot ?(san = Sanitizer.default) ?(features = []) ~version () =
  { st = State.create ~version; san; features }

let reboot k = boot ~san:k.san ~features:k.features ~version:(State.version k.st) ()

(* The assembled lock model: every registered class (subsystem modules
   register theirs at module-init time, which [subsystems ()] forces)
   plus every subsystem's declared handler specs. *)
let lock_model_memo =
  lazy
    (let subs = subsystems () in
     {
       Lock.classes = Lock.registered ();
       specs =
         List.concat_map
           (fun (s : Subsystem.t) ->
             List.map (fun (h, spec) -> (s.Subsystem.name, h, spec)) s.Subsystem.locks)
           subs;
     })

let lock_model () = Lazy.force lock_model_memo

(* The assembled effect model: the interned slot vocabulary (subsystem
   modules intern theirs at module-init time, which [subsystems ()]
   forces) unioned with every lock class's guarded slots, plus every
   subsystem's declared effect specs. *)
let effect_model_memo =
  lazy
    (let subs = subsystems () in
     {
       Effect.slots =
         List.sort_uniq compare
           (Effect.registered_slots ()
           @ List.concat_map
               (fun (c : Lock.cls) -> c.Lock.guards)
               (Lock.registered ()));
       especs =
         List.concat_map
           (fun (s : Subsystem.t) ->
             List.map
               (fun (h, sp) -> (s.Subsystem.name, h, sp))
               s.Subsystem.effects)
           subs;
     })

let effect_model () = Lazy.force effect_model_memo

(* The accesses recorded after [mark], an earlier [State.log],
   oldest first. *)
let since mark log =
  let rec go acc l =
    if l == mark then acc
    else match l with [] -> acc | a :: rest -> go (a :: acc) rest
  in
  go [] log

(* Runtime lockdep and effect checks (the HEALER_DEBUG_VALIDATE
   contract) over one call's accesses: its lock operations must match
   the handler's declared lock spec and the global order graph, and
   every slot it read or wrote must appear in its declared effect
   spec, so the static models can never drift from handler
   behavior. *)
let check_call ~sub ~handler accesses =
  let ops =
    List.filter_map
      (function
        | State.Acquire c -> Some (Lock.Acquire c)
        | State.Release c -> Some (Lock.Release c)
        | State.Read _ | State.Write _ -> None)
      accesses
  in
  (match Lock.check_trace (lock_model ()) ~subsystem:sub ~handler ops with
  | [] -> ()
  | f :: _ -> raise (Lock.Violation f));
  let events =
    List.filter_map
      (function
        | State.Read s -> Some (false, Effect.slot_name s)
        | State.Write s -> Some (true, Effect.slot_name s)
        | State.Acquire _ | State.Release _ -> None)
      accesses
  in
  match Effect.check_trace (effect_model ()) ~subsystem:sub ~handler events with
  | [] -> ()
  | f :: _ -> raise (Effect.Violation f)

(* ---- counts folded from the access log ---- *)

let bump tbl key f zero =
  Hashtbl.replace tbl key (f (Option.value (Hashtbl.find_opt tbl key) ~default:zero))

let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* A pair (A, B) counts once for every held A each time B is
   acquired; a release drops the innermost hold of its class, or every
   hold when it is not innermost. *)
let lock_pair_counts k =
  let pairs = Hashtbl.create 16 in
  let held = ref [] in
  List.iter
    (function
      | State.Acquire c ->
        List.iter (fun h -> bump pairs (h, c) succ 0) !held;
        held := c :: !held
      | State.Release c ->
        held :=
          (match !held with
          | h :: rest when h = c -> rest
          | hs -> List.filter (fun h -> h <> c) hs)
      | State.Read _ | State.Write _ -> ())
    (List.rev (State.log k.st));
  sorted pairs

let lock_acquire_counts k =
  let acqs = Hashtbl.create 16 in
  List.iter
    (function State.Acquire c -> bump acqs c succ 0 | _ -> ())
    (State.log k.st);
  sorted acqs

let effect_counts k =
  let slots = Hashtbl.create 16 in
  List.iter
    (function
      | State.Read s -> bump slots s (fun (r, w) -> (r + 1, w)) (0, 0)
      | State.Write s -> bump slots s (fun (r, w) -> (r, w + 1)) (0, 0)
      | State.Acquire _ | State.Release _ -> ())
    (State.log k.st);
  Hashtbl.fold (fun s (r, w) acc -> (Effect.slot_name s, r, w) :: acc) slots []
  |> List.sort compare

let version k = State.version k.st
let state k = k.st
let sanitizers k = k.san
let features k = k.features

(* Settle every piece of process-global kernel state — the subsystem
   registry, the memoized target, the lazy dispatch tables, the lock
   and effect models, the crash symbol table and the coverage-region
   lookup array — while still single-domain. After this returns, all of that state is read-only,
   so campaigns may run in parallel domains against it. *)
let force_init () =
  ignore (subsystems ());
  ignore (target ());
  ignore (Lazy.force handler_table);
  ignore (Lazy.force subsystem_index);
  ignore (Lazy.force line_index);
  ignore (lock_model ());
  ignore (effect_model ());
  Crash.preload ();
  Coverage.force_regions ()

let blk = Coverage.region ~name:"core" ~size:64

let exec_call k ?(fault = false) ~cov (call : Syscall.t) args =
  let ctx = Ctx.make ~features:k.features ~st:k.st ~san:k.san cov in
  ctx.Ctx.fault_pending <- fault;
  let mark = State.log k.st in
  ignore (State.tick k.st);
  Coverage.hit cov (blk + 0);
  match Hashtbl.find_opt (Lazy.force handler_table) call.Syscall.name with
  | None ->
    Coverage.hit cov (blk + 1);
    Ctx.err Errno.ENOSYS
  | Some h ->
    (* A fault-injected allocation failure short-circuits the call
       itself with ENOMEM on a dedicated branch when the handler has
       not consumed the fault explicitly. *)
    let r = h ctx args in
    (* Skipped when a Crash aborted the call; its accesses stay in the
       log ([Fun.protect] in [Ctx.with_lock] still recorded every
       release). *)
    if Validate.enabled () then
      check_call
        ~sub:(subsystem_of call.Syscall.name)
        ~handler:call.Syscall.name
        (since mark (State.log k.st));
    if Ctx.take_fault ctx then begin
      Coverage.hit cov (blk + 2);
      Ctx.err Errno.ENOMEM
    end
    else r

let coredump k ~cov =
  let ctx = Ctx.make ~features:k.features ~st:k.st ~san:k.san cov in
  Coverage.hit cov (blk + 8);
  (* fill_note / regset walk of binfmt_elf core dumping. *)
  Coverage.hit cov (blk + 9);
  let live = State.live_fds k.st in
  if List.length live >= 1 then begin
    Coverage.hit cov (blk + 10);
    (* Listing 2: a regset with an unfilled tail leaves kmalloc'ed
       memory uninitialized and dumps it to the core file. *)
    Ctx.bug ctx "fill_thread_core_info"
  end
  else Coverage.hit cov (blk + 11)
