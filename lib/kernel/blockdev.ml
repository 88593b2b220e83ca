type nbd = {
  mutable sock : int option;
  mutable running : bool;
  mutable disconnects : int;
  mutable cleared : bool;
}

type loopdev = {
  mutable backing : int option;
  mutable partitions : int list;
  mutable deleted_part : bool;
}

type State.fd_kind += Nbd of nbd | Loop of loopdev

let blk = Coverage.region ~name:"blockdev" ~size:256
let c ctx o = Ctx.cover ctx (blk + o)

let h_open_nbd ctx _args =
  c ctx 0;
  let entry =
    State.alloc_fd ctx.Ctx.st
      (Nbd { sock = None; running = false; disconnects = 0; cleared = false })
  in
  Ctx.ok (Int64.of_int entry.State.fd)

let h_open_loop ctx _args =
  c ctx 2;
  let entry =
    State.alloc_fd ctx.Ctx.st
      (Loop { backing = None; partitions = []; deleted_part = false })
  in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_nbd ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Nbd n; _ } -> k n
  | Some _ ->
    c ctx 4;
    Ctx.err Errno.ENOTTY
  | None ->
    c ctx 5;
    Ctx.err Errno.EBADF

let with_loop ctx args k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some { kind = Loop l; _ } -> k l
  | Some _ ->
    c ctx 6;
    Ctx.err Errno.ENOTTY
  | None ->
    c ctx 7;
    Ctx.err Errno.EBADF

let h_nbd_set_sock ctx args =
  c ctx 9;
  with_nbd ctx args (fun n ->
      let sfd = Arg.as_fd (Arg.nth args 2) in
      match State.lookup_fd ctx.Ctx.st sfd with
      | Some { kind = Sock.Sock _; _ } ->
        c ctx 10;
        n.sock <- Some sfd;
        n.cleared <- false;
        Ctx.ok0
      | Some _ ->
        c ctx 11;
        Ctx.err Errno.EINVAL
      | None ->
        c ctx 12;
        Ctx.err Errno.EBADF)

let h_nbd_do_it ctx args =
  c ctx 14;
  with_nbd ctx args (fun n ->
      match n.sock with
      | None ->
        c ctx 15;
        Ctx.err Errno.EINVAL
      | Some _ ->
        if n.running then begin
          c ctx 16;
          Ctx.err Errno.EBUSY
        end
        else begin
          c ctx 17;
          n.running <- true;
          Ctx.ok0
        end)

let h_nbd_disconnect ctx args =
  c ctx 19;
  with_nbd ctx args (fun n ->
      n.disconnects <- n.disconnects + 1;
      match n.sock with
      | None ->
        c ctx 20;
        Ctx.err Errno.EINVAL
      | Some _ ->
        c ctx 21;
        (* Second disconnect while the socket config is still attached
           drops the config reference twice (nbd_disconnect_and_put,
           5.11). *)
        if n.disconnects >= 2 then begin
          c ctx 22;
          Ctx.bug ctx "nbd_disconnect_and_put"
        end;
        n.running <- false;
        Ctx.ok0)

let h_nbd_clear_sock ctx args =
  c ctx 24;
  with_nbd ctx args (fun n ->
      c ctx 25;
      (* Clearing after a completed disconnect cycle, then
         disconnecting again, puts a device reference that is already
         gone (put_device, 5.11). The second-stage check lives in
         h_nbd_disconnect via [cleared]. *)
      if n.cleared && n.disconnects >= 2 then begin
        c ctx 26;
        Ctx.bug ctx "put_device"
      end;
      n.sock <- None;
      n.cleared <- true;
      Ctx.ok0)

let h_loop_set_fd ctx args =
  c ctx 28;
  with_loop ctx args (fun l ->
      let bfd = Arg.as_fd (Arg.nth args 2) in
      match State.lookup_fd ctx.Ctx.st bfd with
      | Some { kind = Vfs.File _; _ } | Some { kind = Memfd.Memfd _; _ } ->
        if l.backing <> None then begin
          c ctx 29;
          Ctx.err Errno.EBUSY
        end
        else begin
          c ctx 30;
          l.backing <- Some bfd;
          Ctx.ok0
        end
      | Some _ ->
        c ctx 31;
        Ctx.err Errno.EINVAL
      | None ->
        c ctx 32;
        Ctx.err Errno.EBADF)

let h_loop_clr_fd ctx args =
  c ctx 34;
  with_loop ctx args (fun l ->
      if l.backing = None then begin
        c ctx 35;
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 36;
        l.backing <- None;
        Ctx.ok0
      end)

let h_blkpg_add ctx args =
  c ctx 38;
  with_loop ctx args (fun l ->
      let pno = Int64.to_int (Arg.as_int (Arg.field (Arg.nth args 2) 0)) in
      if pno <= 0 || pno > 15 then begin
        c ctx 39;
        Ctx.err Errno.EINVAL
      end
      else if List.mem pno l.partitions then begin
        c ctx 40;
        Ctx.err Errno.EBUSY
      end
      else begin
        c ctx 41;
        l.partitions <- pno :: l.partitions;
        Ctx.ok0
      end)

let h_blkpg_del ctx args =
  c ctx 43;
  with_loop ctx args (fun l ->
      let pno = Int64.to_int (Arg.as_int (Arg.field (Arg.nth args 2) 0)) in
      if List.mem pno l.partitions then begin
        c ctx 44;
        l.partitions <- List.filter (fun p -> p <> pno) l.partitions;
        l.deleted_part <- true;
        Ctx.ok0
      end
      else begin
        c ctx 45;
        Ctx.err Errno.ENXIO
      end)

let h_blkrrpart ctx args =
  c ctx 47;
  with_loop ctx args (fun l ->
      match l.backing with
      | None ->
        c ctx 48;
        Ctx.err Errno.ENXIO
      | Some _ ->
        c ctx 49;
        (* Re-reading the partition table while iterating over a just
           deleted partition: the iterator touches the freed partition
           (disk_part_iter, known), and on 5.11 re-adding from a dirty
           table faults in blk_add_partitions. *)
        if l.deleted_part then begin
          c ctx 50;
          if l.partitions <> [] then begin
            c ctx 51;
            Ctx.bug ctx "disk_part_iter_uaf"
          end;
          Ctx.bug ctx "blk_add_partitions";
          l.deleted_part <- false
        end;
        if List.length l.partitions > 4 then c ctx 52;
        c ctx (64 + min 7 (List.length l.partitions));
        Ctx.ok0)

let descriptions =
  {|
# Block devices: NBD, loop, partitions.
resource fd_nbd[fd]
resource fd_loop[fd]
struct blkpg_part { pno int32, start int64, plength int64 }
openat$nbd(dirfd fd, file filename["/dev/nbd0"], oflags flags[open_flags]) fd_nbd
openat$loop(dirfd fd, file filename["/dev/loop0"], oflags flags[open_flags]) fd_loop
ioctl$NBD_SET_SOCK(fd fd_nbd, cmd const[0xab00], sock sock)
ioctl$NBD_DO_IT(fd fd_nbd, cmd const[0xab03])
ioctl$NBD_DISCONNECT(fd fd_nbd, cmd const[0xab08])
ioctl$NBD_CLEAR_SOCK(fd fd_nbd, cmd const[0xab04])
ioctl$LOOP_SET_FD(fd fd_loop, cmd const[0x4c00], backing fd)
ioctl$LOOP_CLR_FD(fd fd_loop, cmd const[0x4c01])
ioctl$BLKPG_ADD(fd fd_loop, cmd const[0x1269], part ptr[in, blkpg_part])
ioctl$BLKPG_DEL(fd fd_loop, cmd const[0x126a], part ptr[in, blkpg_part])
ioctl$BLKRRPART(fd fd_loop, cmd const[0x125f])
|}

let sub =
  Subsystem.make ~name:"blockdev" ~descriptions
    ~handlers:
      [
        ("openat$nbd", h_open_nbd);
        ("openat$loop", h_open_loop);
        ("ioctl$NBD_SET_SOCK", h_nbd_set_sock);
        ("ioctl$NBD_DO_IT", h_nbd_do_it);
        ("ioctl$NBD_DISCONNECT", h_nbd_disconnect);
        ("ioctl$NBD_CLEAR_SOCK", h_nbd_clear_sock);
        ("ioctl$LOOP_SET_FD", h_loop_set_fd);
        ("ioctl$LOOP_CLR_FD", h_loop_clr_fd);
        ("ioctl$BLKPG_ADD", h_blkpg_add);
        ("ioctl$BLKPG_DEL", h_blkpg_del);
        ("ioctl$BLKRRPART", h_blkrrpart);
      ]
    ()
