type video = {
  mutable fmt_set : bool;
  mutable fmt_changes : int;
  mutable reqbufs : int;
  mutable streaming : bool;
  mutable ctrl_set : bool;
}

type State.fd_kind += Vivid of video

let blk = Coverage.region ~name:"vivid" ~size:192
let c ctx o = Ctx.cover ctx (blk + o)

let h_open ctx _args =
  c ctx 0;
  let v =
    { fmt_set = false; fmt_changes = 0; reqbufs = 0; streaming = false;
      ctrl_set = false }
  in
  let entry = State.alloc_fd ctx.Ctx.st (Vivid v) in
  Ctx.ok (Int64.of_int entry.State.fd)

let with_video ctx args k =
  match State.lookup_fd ctx.Ctx.st (Arg.as_fd (Arg.nth args 0)) with
  | Some { kind = Vivid v; _ } -> k v
  | Some _ -> (c ctx 2; Ctx.err Errno.ENOTTY)
  | None -> (c ctx 3; Ctx.err Errno.EBADF)

let h_querycap ctx args =
  c ctx 5;
  with_video ctx args (fun _ ->
      c ctx 6;
      Ctx.ok0)

let h_s_fmt ctx args =
  c ctx 8;
  with_video ctx args (fun v ->
      let w = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      let h = Arg.as_int (Arg.field (Arg.nth args 2) 1) in
      if Int64.compare w 0L <= 0 || Int64.compare h 0L <= 0 then begin
        c ctx 9;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 10;
        v.fmt_set <- true;
        v.fmt_changes <- v.fmt_changes + 1;
        if v.streaming then c ctx 11;
        Ctx.ok0
      end)

let h_reqbufs ctx args =
  c ctx 13;
  with_video ctx args (fun v ->
      let n = Int64.to_int (Arg.as_int (Arg.nth args 2)) in
      if n < 0 || n > 32 then begin
        c ctx 14;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 15;
        v.reqbufs <- n;
        Ctx.ok0
      end)

let h_streamon ctx args =
  c ctx 17;
  with_video ctx args (fun v ->
      if not v.fmt_set then begin
        c ctx 18;
        Ctx.err Errno.EINVAL
      end
      else if v.streaming then begin
        c ctx 19;
        Ctx.err Errno.EBUSY
      end
      else begin
        c ctx 20;
        v.streaming <- true;
        Ctx.ok0
      end)

let h_streamoff ctx args =
  c ctx 22;
  with_video ctx args (fun v ->
      if not v.streaming then begin
        c ctx 23;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 24;
        (* Stopping the generator after a mid-stream format change
           with no queued buffers and an adjusted control: the
           generator thread is already gone (4.19). *)
        if v.reqbufs = 0 && v.fmt_changes >= 2 && v.ctrl_set then begin
          c ctx 25;
          Ctx.bug ctx "vivid_stop_generating_vid_cap"
        end;
        let combo =
          (if v.reqbufs > 0 then 1 else 0)
          lor (if v.ctrl_set then 2 else 0)
          lor if v.fmt_changes >= 2 then 4 else 0
        in
        c ctx (64 + combo);
        v.streaming <- false;
        Ctx.ok0
      end)

let h_queryctrl ctx args =
  c ctx 27;
  with_video ctx args (fun v ->
      let id = Arg.as_int (Arg.nth args 2) in
      if Int64.compare id 0x10000L > 0 && v.streaming then begin
        (* Control index beyond the table while the generator reads
           it. *)
        c ctx 28;
        Ctx.bug ctx "v4l2_queryctrl_oob";
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 29;
        Ctx.ok0
      end)

let h_s_ctrl ctx args =
  c ctx 31;
  with_video ctx args (fun v ->
      c ctx 32;
      v.ctrl_set <- true;
      ignore args;
      Ctx.ok0)

let descriptions =
  {|
# Vivid virtual video driver (V4L2).
resource fd_vivid[fd]
struct v4l2_fmt { width int32, height int32, pixelformat int32 }
openat$vivid(dirfd fd, file filename["/dev/video0"], oflags flags[open_flags]) fd_vivid
ioctl$VIDIOC_QUERYCAP(fd fd_vivid, cmd const[0x80685600])
ioctl$VIDIOC_S_FMT(fd fd_vivid, cmd const[0xc0d05605], fmt ptr[in, v4l2_fmt])
ioctl$VIDIOC_REQBUFS(fd fd_vivid, cmd const[0xc0145608], count int32[0:32])
ioctl$VIDIOC_STREAMON(fd fd_vivid, cmd const[0x40045612])
ioctl$VIDIOC_STREAMOFF(fd fd_vivid, cmd const[0x40045613])
ioctl$VIDIOC_QUERYCTRL(fd fd_vivid, cmd const[0xc0445624], id int32)
ioctl$VIDIOC_S_CTRL(fd fd_vivid, cmd const[0xc008561c], ctrl ptr[in, int64])
|}

let sub =
  Subsystem.make ~name:"vivid" ~descriptions
    ~handlers:
      [
        ("openat$vivid", h_open);
        ("ioctl$VIDIOC_QUERYCAP", h_querycap);
        ("ioctl$VIDIOC_S_FMT", h_s_fmt);
        ("ioctl$VIDIOC_REQBUFS", h_reqbufs);
        ("ioctl$VIDIOC_STREAMON", h_streamon);
        ("ioctl$VIDIOC_STREAMOFF", h_streamoff);
        ("ioctl$VIDIOC_QUERYCTRL", h_queryctrl);
        ("ioctl$VIDIOC_S_CTRL", h_s_ctrl);
      ]
    ()
