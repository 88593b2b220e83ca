type watch = {
  wd : int64;
  wpath : string;
  mutable snap_size : int64;
  mutable snap_exists : bool;
}

type inotify = { mutable watches : watch list; mutable next_wd : int64 }

type State.fd_kind += Inotify of inotify

let blk = Coverage.region ~name:"inotify" ~size:192
let c ctx o = Ctx.cover ctx (blk + o)

let h_init ctx _args =
  c ctx 0;
  let entry = State.alloc_fd ctx.Ctx.st (Inotify { watches = []; next_wd = 1L }) in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_inotify ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Inotify ino; _ } -> k ino
  | Some _ -> (c ctx 2; Ctx.err Errno.EINVAL)
  | None -> (c ctx 3; Ctx.err Errno.EBADF)

let inode_state ctx path =
  match Vfs.inode_size ctx.Ctx.st path with
  | Some size -> (size, true)
  | None -> (0L, false)

let h_add_watch ctx args =
  c ctx 5;
  with_inotify ctx args (fun ino ->
      let path = Arg.as_str (Arg.nth args 1) in
      let mask = Arg.as_int (Arg.nth args 2) in
      if Int64.compare mask 0L = 0 then begin
        c ctx 6;
        Ctx.err Errno.EINVAL
      end
      else begin
        let size, exists = inode_state ctx path in
        if not exists then begin
          c ctx 7;
          Ctx.err Errno.ENOENT
        end
        else begin
          c ctx 8;
          (* Re-adding a watched path refreshes the existing watch. *)
          match List.find_opt (fun w -> w.wpath = path) ino.watches with
          | Some w ->
            c ctx 9;
            w.snap_size <- size;
            w.snap_exists <- exists;
            Ctx.ok w.wd
          | None ->
            c ctx 10;
            let wd = ino.next_wd in
            ino.next_wd <- Int64.add wd 1L;
            ino.watches <-
              { wd; wpath = path; snap_size = size; snap_exists = exists }
              :: ino.watches;
            c ctx (16 + min 7 (List.length ino.watches));
            Ctx.ok wd
        end
      end)

let h_rm_watch ctx args =
  c ctx 26;
  with_inotify ctx args (fun ino ->
      let wd = Arg.as_int (Arg.nth args 1) in
      if List.exists (fun w -> w.wd = wd) ino.watches then begin
        c ctx 27;
        ino.watches <- List.filter (fun w -> w.wd <> wd) ino.watches;
        Ctx.ok0
      end
      else begin
        c ctx 28;
        Ctx.err Errno.EINVAL
      end)

(* Reading reports one event per watch whose inode diverged from the
   snapshot, then refreshes the snapshots. *)
let inotify_read ctx (entry : State.fd_entry) _args =
  match entry.kind with
  | Inotify ino ->
    c ctx 30;
    let events = ref 0 in
    List.iter
      (fun w ->
        let size, exists = inode_state ctx w.wpath in
        if exists <> w.snap_exists then begin
          c ctx 31 (* IN_DELETE_SELF / IN_CREATE *);
          incr events
        end
        else if size <> w.snap_size then begin
          c ctx 32 (* IN_MODIFY *);
          incr events
        end;
        w.snap_size <- size;
        w.snap_exists <- exists)
      ino.watches;
    if !events = 0 then begin
      c ctx 33;
      Ctx.err Errno.EAGAIN
    end
    else begin
      c ctx (40 + min 7 !events);
      Ctx.ok (Int64.of_int (!events * 16))
    end
  | _ -> Ctx.err Errno.EINVAL

let descriptions =
  {|
# inotify filesystem events.
resource fd_inotify[fd]
resource inotify_wd[int64]: -1
flags inotify_mask = 0x1 0x2 0x4 0x8 0x100 0x200 0x400 0xfff
inotify_init(iflags const[0]) fd_inotify
inotify_add_watch(fd fd_inotify, path filename["/tmp/f0", "/tmp/f1", "/tmp/data", "/etc/passwd"], mask flags[inotify_mask]) inotify_wd
inotify_rm_watch(fd fd_inotify, wd inotify_wd)
|}

let sub =
  Subsystem.make ~name:"inotify" ~descriptions
    ~handlers:
      [
        ("inotify_init", h_init);
        (* Registering a watch snapshots the target inode, i.e. reads
           the vfs "fs" slot — that read happens under the inode lock,
           like fsnotify does. *)
        ("inotify_add_watch", Subsystem.locked [ Vfs.vfs_files ] h_add_watch);
        ("inotify_rm_watch", h_rm_watch);
      ]
    ~locks:[ ("inotify_add_watch", Lock.scoped [ "vfs_files" ]) ]
    ~effects:[ ("inotify_add_watch", Effect.spec ~reads:[ "fs" ] ()) ]
    ~file_ops:
      [
        {
          Subsystem.op_name = "read";
          applies = (function Inotify _ -> true | _ -> false);
          run = inotify_read;
        };
      ]
    ()
