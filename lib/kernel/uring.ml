type uring = {
  mutable entries : int;
  mutable registered_bufs : int;
  mutable inflight : int;
  mutable unregister_pending : bool;
  mutable exiting : bool;
}

type State.fd_kind += Uring of uring

let blk = Coverage.region ~name:"uring" ~size:192

(* ctx->uring_lock: SQ/CQ rings and the registered-buffer table. *)
let uring_ctx = Lock.register ~rank:80 ~guards:[ "fd:uring" ] "uring_ctx"
let c ctx o = Ctx.cover ctx (blk + o)

(* Effect slot for the ring payload; io_uring_setup's allocation is
   exempt (fresh payload). *)
let s_fd_uring = Effect.slot "fd:uring"

let h_setup ctx args =
  let entries = Int64.to_int (Arg.as_int (Arg.nth args 0)) in
  c ctx 0;
  if entries <= 0 || entries > 4096 then begin
    c ctx 1;
    Ctx.err Errno.EINVAL
  end
  else begin
    c ctx 2;
    if entries > 1024 then c ctx 3;
    let u =
      {
        entries;
        registered_bufs = 0;
        inflight = 0;
        unregister_pending = false;
        exiting = false;
      }
    in
    let entry = State.alloc_fd ctx.Ctx.st (Uring u) in
    Ctx.ok (Int64.of_int entry.State.fd)
  end

let with_uring ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Uring u; _ } ->
    State.record_read ctx.Ctx.st s_fd_uring;
    k u
  | Some _ ->
    c ctx 5;
    Ctx.err Errno.EOPNOTSUPP
  | None ->
    c ctx 6;
    Ctx.err Errno.EBADF

let h_enter ctx args =
  c ctx 8;
  with_uring ctx args (fun u ->
      let to_submit = Int64.to_int (Arg.as_int (Arg.nth args 1)) in
      let flags = Arg.as_int (Arg.nth args 3) in
      if to_submit < 0 then begin
        c ctx 9;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 10;
        if u.exiting then begin
          (* Entering a ring whose owner task already started exit work
             trips a WARN in io_ring_exit_work. *)
          c ctx 11;
          Ctx.bug ctx "io_ring_exit_work";
          Ctx.err Errno.EINVAL
        end
        else begin
          let n = min to_submit u.entries in
          State.record_write ctx.Ctx.st s_fd_uring;
          u.inflight <- u.inflight + n;
          (* GETEVENTS while a buffer unregister is pending cancels the
             task requests against a NULL task context (5.11). *)
          if Int64.logand flags 1L <> 0L && u.unregister_pending && u.inflight > 0
          then begin
            c ctx 12;
            Ctx.bug ctx "io_uring_cancel_task_requests"
          end;
          if n = 0 then c ctx 13 else if n > 32 then c ctx 14 else c ctx 15;
          let combo =
            (if u.registered_bufs > 0 then 1 else 0)
            lor (if u.unregister_pending then 2 else 0)
            lor if u.inflight > 16 then 4 else 0
          in
          c ctx (64 + combo);
          let submit_class =
            if n = 0 then 0 else if n <= 4 then 1
            else if n <= 16 then 2 else if n <= 64 then 3
            else if n <= 256 then 4 else 5
          in
          c ctx (96 + (combo * 8) + submit_class);
          Ctx.ok (Int64.of_int n)
        end
      end)

let h_register_buffers ctx args =
  c ctx 17;
  with_uring ctx args (fun u ->
      let nr = Int64.to_int (Arg.as_int (Arg.nth args 3)) in
      if u.registered_bufs > 0 then begin
        c ctx 18;
        Ctx.err Errno.EBUSY
      end
      else begin
        c ctx 19;
        State.record_write ctx.Ctx.st s_fd_uring;
        u.registered_bufs <- max 1 (min nr 1024);
        u.unregister_pending <- false;
        Ctx.ok0
      end)

let h_unregister_buffers ctx args =
  c ctx 21;
  with_uring ctx args (fun u ->
      if u.registered_bufs = 0 then begin
        c ctx 22;
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 23;
        State.record_write ctx.Ctx.st s_fd_uring;
        u.registered_bufs <- 0;
        (* Teardown is deferred while requests are in flight. *)
        if u.inflight > 0 then begin
          c ctx 24;
          u.unregister_pending <- true
        end;
        Ctx.ok0
      end)

(* Release hook: a task dying with heavy inflight IO starts the exit
   work early; entering through a surviving duplicate then misbehaves. *)
let uring_close ctx (entry : State.fd_entry) _args =
  match entry.kind with
  | Uring u ->
    c ctx 26;
    State.record_read ctx.Ctx.st s_fd_uring;
    if u.inflight > 16 then begin
      c ctx 27;
      State.record_write ctx.Ctx.st s_fd_uring;
      u.exiting <- true
    end;
    Ctx.ok0
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# io_uring.
resource fd_uring[fd]
flags uring_enter_flags = 0x0 0x1 0x2 0x3
struct uring_params { sq_entries int32, cq_entries int32, uflags int32 }
struct iovec { base vma, iov_len int64 }
io_uring_setup(entries int32[0:4096], params ptr[inout, uring_params]) fd_uring
io_uring_enter(fd fd_uring, to_submit int32, min_complete int32, eflags flags[uring_enter_flags])
io_uring_register$BUFFERS(fd fd_uring, opcode const[0], iovs ptr[in, array[iovec, 1:4]], nr_iovs len[iovs])
io_uring_register$UNREGISTER_BUFFERS(fd fd_uring, opcode const[1], unused ptr[in, int64], zero const[0])
|}

let sub =
  Subsystem.make ~name:"uring" ~descriptions
    ~handlers:
      [
        ("io_uring_setup", h_setup);
        ("io_uring_enter", Subsystem.locked [ uring_ctx ] h_enter);
        ("io_uring_register$BUFFERS", Subsystem.locked [ uring_ctx ] h_register_buffers);
        ( "io_uring_register$UNREGISTER_BUFFERS",
          Subsystem.locked [ uring_ctx ] h_unregister_buffers );
      ]
    ~locks:
      (let w = Lock.scoped [ "uring_ctx" ] ~touches:[ "fd:uring" ] in
       [
         ("io_uring_enter", w);
         ("io_uring_register$BUFFERS", w);
         ("io_uring_register$UNREGISTER_BUFFERS", w);
       ])
    ~effects:
      (let e = Effect.spec ~writes:[ "fd:uring" ] () in
       [
         ("io_uring_enter", e);
         ("io_uring_register$BUFFERS", e);
         ("io_uring_register$UNREGISTER_BUFFERS", e);
       ])
    ~file_ops:
      [
        {
          Subsystem.op_name = "close";
          applies = (function Uring _ -> true | _ -> false);
          run = uring_close;
        };
      ]
    ()
