type t = {
  st : State.t;
  cov : Coverage.t;
  san : Sanitizer.config;
  features : string list;
  proc : int;
  mutable fault_pending : bool;
}

type result = { ret : int64; err : Errno.t option }

let make ?(features = []) ?(proc = 0) ~st ~san cov =
  {
    st;
    cov;
    san;
    features;
    proc;
    fault_pending = false;
  }

let ok ret = { ret; err = None }
let ok0 = { ret = 0L; err = None }
let err e = { ret = Int64.of_int (-Errno.code e); err = Some e }

let cover ctx id = Coverage.hit ctx.cov id
let covern ctx base offs = List.iter (fun o -> Coverage.hit ctx.cov (base + o)) offs
let version ctx = State.version ctx.st
let has_feature ctx f = List.mem f ctx.features

let take_fault ctx =
  if ctx.fault_pending then begin
    ctx.fault_pending <- false;
    true
  end
  else false

let bug_fires ctx key =
  match Bug.find key with
  | None -> invalid_arg ("Ctx.bug: unknown bug key " ^ key)
  | Some b -> Bug.exists_in b (version ctx) && Sanitizer.detects ctx.san b.risk

let bug ctx key =
  if bug_fires ctx key then
    let b = Bug.find_exn key in
    raise (Crash.Crash { bug_key = key; risk = b.risk })

let with_lock ctx (c : Lock.cls) f =
  State.record_acquire ctx.st c.Lock.cname;
  Fun.protect ~finally:(fun () -> State.record_release ctx.st c.Lock.cname) f
