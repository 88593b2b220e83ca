module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Prog = Healer_executor.Prog

(* LTP-style test scenarios: ordered call chains per subsystem. Names
   not present in the target (e.g. when a subsystem is disabled) are
   skipped, so the corpus degrades gracefully. *)
(* Handwritten test suites exercise the common happy paths of each
   subsystem — typically the setup prefix plus one or two operations —
   not the precise deep combinations a fuzzer must discover. *)
let scenarios =
  [
    [ "open"; "write"; "lseek"; "read"; "fstat"; "close" ];
    [ "open"; "fallocate"; "fsync"; "ftruncate"; "close" ];
    [ "memfd_create"; "write"; "read" ];
    [ "memfd_create"; "ftruncate"; "fcntl$GET_SEALS" ];
    [ "epoll_create"; "open"; "epoll_ctl$EPOLL_CTL_ADD"; "epoll_wait";
      "epoll_ctl$EPOLL_CTL_DEL" ];
    [ "open"; "io_setup"; "io_submit"; "io_destroy"; "close" ];
    [ "mknod$chr"; "open$chr"; "write"; "close" ];
    [ "socket$tcp"; "bind"; "listen"; "accept"; "close" ];
    [ "socket$udp"; "bind"; "sendto"; "recvfrom" ];
    [ "socket$tcp"; "connect"; "sendto"; "shutdown" ];
    [ "openat$kvm"; "ioctl$KVM_CREATE_VM"; "ioctl$KVM_CREATE_VCPU" ];
    [ "openat$kvm"; "ioctl$KVM_CREATE_VM"; "ioctl$KVM_CREATE_IRQCHIP" ];
    [ "openat$ptmx"; "write"; "read"; "close" ];
    [ "openat$vcs"; "lseek"; "read" ];
    [ "openat$fb0"; "ioctl$FBIOGET_VSCREENINFO"; "write" ];
    [ "openat$rdma_cm"; "ioctl$RDMA_CREATE_ID"; "ioctl$RDMA_BIND_ADDR" ];
    [ "io_uring_setup"; "io_uring_enter" ];
    [ "openat$nbd"; "socket$tcp"; "ioctl$NBD_SET_SOCK" ];
    [ "openat$loop"; "open"; "ioctl$LOOP_SET_FD" ];
    [ "socket$l2cap"; "bind$l2cap"; "connect$l2cap" ];
    [ "socket$llcp"; "bind$llcp"; "listen$llcp" ];
    [ "mount$ext4"; "open"; "write"; "fsync"; "umount" ];
    [ "openat$vivid"; "ioctl$VIDIOC_S_FMT"; "ioctl$VIDIOC_REQBUFS";
      "ioctl$VIDIOC_STREAMON" ];
    [ "prctl$PR_SET_NAME"; "prctl$PR_GET_NAME"; "getrandom$DEFAULT" ];
    [ "clock_gettime$REALTIME"; "clock_gettime$MONOTONIC"; "times$SELF" ];
    [ "socket$nl_route"; "sendmsg$RTM_NEWLINK"; "sendmsg$RTM_GETLINK";
      "recvmsg$netlink" ];
    [ "socket$nl_route"; "sendmsg$RTM_SETLINK"; "socket$packet";
      "sendto$packet" ];
    [ "socket$nl_generic"; "sendmsg$GETFAMILY"; "bind$nl_generic";
      "sendmsg$genl" ];
  ]

let noise_calls =
  [ "read"; "lseek"; "fstat"; "epoll_create"; "munmap"; "fsync";
    "umask$SET"; "sync$ALL"; "getcpu$CURRENT" ]

let build_trace rng target names =
  let with_noise =
    (* Interleave 1-2 unrelated calls, as real strace output contains. *)
    List.concat_map
      (fun name ->
        if Rng.chance rng 0.25 then [ name; Rng.pick rng noise_calls ]
        else [ name ])
      names
  in
  let b = Prog.Builder.create () in
  List.iter
    (fun name ->
      match Target.find target name with
      | Some call -> Builder.append_call_b rng target b call
      | None -> ())
    with_noise;
  Prog.Builder.to_prog b

let traces ?(seed = 7) target =
  let rng = Rng.create seed in
  List.filter_map
    (fun names ->
      let p = build_trace rng target names in
      if Prog.length p >= 2 then Some p else None)
    scenarios

let distilled ?seed target = Distill.distill (traces ?seed target)
