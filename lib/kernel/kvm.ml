type vm = {
  mutable vcpus : int;
  mutable memslots : (int64 * int64) list;
  mutable irqchip : bool;
  mutable coalesced_zones : int64 list;
  mutable io_bus_devs : int64 list;
  mutable hv_routing_stale : bool;
  mutable dirty_log_slots : int64 list;
  mutable tss_addr : int64 option;
}

type vcpu = {
  vm_fd : int;
  mutable lapic_set : bool;
  mutable cap_enabled : bool;
  mutable smi_pending : bool;
  mutable guest_debug : bool;
  mutable runs : int;
  mutable regs_set : bool;
  mutable nmi_pending : bool;
}

type State.fd_kind += Kvm_sys | Kvm_vm of vm | Kvm_vcpu of vcpu

let blk = Coverage.region ~name:"kvm" ~size:1024
let c ctx o = Ctx.cover ctx (blk + o)

let h_open_kvm ctx args =
  let path = Arg.as_str (Arg.nth args 1) in
  c ctx 0;
  if path <> "/dev/kvm" then begin
    c ctx 1;
    Ctx.err Errno.ENOENT
  end
  else begin
    c ctx 2;
    let entry = State.alloc_fd ctx.Ctx.st Kvm_sys in
    Ctx.ok (Int64.of_int entry.fd)
  end

let with_kind ctx args extract bad k =
  let fd = Arg.as_fd (Arg.nth args 0) in
  match State.lookup_fd ctx.Ctx.st fd with
  | Some entry -> (
    match extract entry.State.kind with
    | Some x -> k fd x
    | None ->
      c ctx bad;
      Ctx.err Errno.EINVAL)
  | None ->
    c ctx (bad + 1);
    Ctx.err Errno.EBADF

let with_sys ctx args k =
  with_kind ctx args (function Kvm_sys -> Some () | _ -> None) 4 (fun _ () -> k ())

let with_vm ctx args k =
  with_kind ctx args (function Kvm_vm vm -> Some vm | _ -> None) 6 k

let with_vcpu ctx args k =
  with_kind ctx args (function Kvm_vcpu v -> Some v | _ -> None) 8 k

let h_create_vm ctx args =
  c ctx 10;
  with_sys ctx args (fun () ->
      c ctx 11;
      let vm =
        {
          vcpus = 0;
          memslots = [];
          irqchip = false;
          coalesced_zones = [];
          io_bus_devs = [];
          hv_routing_stale = false;
          dirty_log_slots = [];
          tss_addr = None;
        }
      in
      let entry = State.alloc_fd ctx.Ctx.st (Kvm_vm vm) in
      Ctx.ok (Int64.of_int entry.fd))

let h_create_vcpu ctx args =
  c ctx 13;
  with_vm ctx args (fun vm_fd vm ->
      let id = Arg.as_int (Arg.nth args 2) in
      if Int64.compare id 0L < 0 || Int64.compare id 8L >= 0 then begin
        c ctx 14;
        Ctx.err Errno.EINVAL
      end
      else if vm.vcpus >= 4 then begin
        c ctx 15;
        Ctx.err Errno.ENOMEM
      end
      else begin
        c ctx 16;
        vm.vcpus <- vm.vcpus + 1;
        let v =
          {
            vm_fd;
            lapic_set = false;
            cap_enabled = false;
            smi_pending = false;
            guest_debug = false;
            runs = 0;
            regs_set = false;
            nmi_pending = false;
          }
        in
        let entry = State.alloc_fd ctx.Ctx.st (Kvm_vcpu v) in
        Ctx.ok (Int64.of_int entry.fd)
      end)

let h_set_memory_region ctx args =
  c ctx 18;
  with_vm ctx args (fun _ vm ->
      (* region { slot int32, flags, guest_phys_addr int64, memory_size
         int64, userspace_addr vma } *)
      let r = Arg.nth args 2 in
      if Arg.is_null r then begin
        c ctx 19;
        Ctx.err Errno.EFAULT
      end
      else begin
        let gpa = Arg.as_int (Arg.field r 2) in
        let size = Arg.as_int (Arg.field r 3) in
        if Int64.compare size 0L < 0 then begin
          c ctx 20;
          Ctx.err Errno.EINVAL
        end
        else if Int64.compare size 0L = 0 then begin
          c ctx 21;
          (* Size 0 deletes the slot. *)
          vm.memslots <-
            List.filter (fun (base, _) -> Int64.compare base gpa <> 0) vm.memslots;
          Ctx.ok0
        end
        else begin
          c ctx 22;
          let npages = Int64.shift_right_logical size 12 in
          let slot = Arg.as_int (Arg.field r 0) in
          let mflags = Arg.as_int (Arg.field r 1) in
          if Int64.logand mflags 0x1L <> 0L (* KVM_MEM_LOG_DIRTY_PAGES *) then
            vm.dirty_log_slots <- slot :: vm.dirty_log_slots;
          vm.memslots <- (Int64.shift_right_logical gpa 12, npages) :: vm.memslots;
          if List.length vm.memslots > 2 then c ctx 23;
          (* A slot whose page count wraps past the gfn space poisons
             later gfn->hva cache initialization (5.6+). *)
          if Int64.compare size 0x0fffffff00000000L > 0 then c ctx 24;
          Ctx.ok0
        end
      end)

let vm_of_vcpu ctx v =
  match State.lookup_fd ctx.Ctx.st v.vm_fd with
  | Some { kind = Kvm_vm vm; _ } -> Some vm
  | Some _ | None -> None

let h_run ctx args =
  c ctx 26;
  with_vcpu ctx args (fun _ v ->
      match vm_of_vcpu ctx v with
      | None ->
        c ctx 27;
        Ctx.err Errno.ENODEV
      | Some vm ->
        v.runs <- v.runs + 1;
        if vm.memslots = [] then begin
          c ctx 28;
          Ctx.err Errno.EFAULT (* no memory: VM exits immediately *)
        end
        else begin
          c ctx 29;
          (* Guest touches a gfn: binary search over memslots
             (Listing 1). With two or more discontiguous slots that all
             start above gfn 0, the search can end with start == end
             and the subsequent memslots[start] access is out of
             bounds. *)
          let discontiguous =
            List.length vm.memslots >= 2
            && List.for_all (fun (base, _) -> Int64.compare base 0L > 0) vm.memslots
          in
          if discontiguous then begin
            c ctx 30;
            Ctx.bug ctx "search_memslots"
          end;
          (* gfn->hva cache over a wrapping slot (5.6+). *)
          if
            List.exists
              (fun (_, npages) -> Int64.compare npages 0x000fffffffffffL > 0)
              vm.memslots
          then begin
            c ctx 31;
            Ctx.bug ctx "kvm_gfn_to_hva_cache_init"
          end;
          if v.lapic_set then c ctx 32;
          let smi = v.smi_pending in
          if smi then begin
            c ctx 33;
            v.smi_pending <- false
          end;
          if v.nmi_pending then begin
            c ctx 800;
            v.nmi_pending <- false
          end;
          if v.regs_set then c ctx 801;
          if vm.tss_addr <> None then c ctx 802;
          if v.guest_debug then c ctx 34;
          if vm.irqchip then c ctx 35;
          if v.cap_enabled then c ctx 36;
          (* The vcpu-run fast path specializes on the assembled VM
             configuration: each combination is its own inlined
             dispatch block. *)
          let combo =
            (if v.lapic_set then 1 else 0)
            lor (if vm.irqchip then 2 else 0)
            lor (if v.guest_debug then 4 else 0)
            lor (if smi then 8 else 0)
            lor if v.cap_enabled then 16 else 0
          in
          c ctx (100 + combo);
          c ctx (140 + min 7 (List.length vm.memslots));
          c ctx (150 + min 7 v.runs);
          if vm.coalesced_zones <> [] then c ctx (160 + min 7 (List.length vm.io_bus_devs));
          (* Product space: configuration x progress ladder. Each run
             of a differently-assembled VM retires a distinct block,
             like the emulator's specialized exit handlers. *)
          let ladder = min 15 ((2 * List.length vm.memslots) + v.runs) in
          c ctx (256 + (combo * 16) + ladder);
          Ctx.ok0
        end)

let h_create_irqchip ctx args =
  c ctx 38;
  with_vm ctx args (fun _ vm ->
      if vm.irqchip then begin
        c ctx 39;
        Ctx.err Errno.EEXIST
      end
      else begin
        c ctx 40;
        vm.irqchip <- true;
        Ctx.ok0
      end)

let h_irq_line ctx args =
  c ctx 42;
  with_vm ctx args (fun _ vm ->
      if not vm.irqchip then begin
        c ctx 43;
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 44;
        (* Raising a line while the Hyper-V SynIC routing table is
           stale dereferences the freed table (5.11). *)
        if vm.hv_routing_stale then begin
          c ctx 45;
          Ctx.bug ctx "kvm_hv_irq_routing_update"
        end;
        let level = Arg.as_int (Arg.field (Arg.nth args 2) 1) in
        if Int64.compare level 0L = 0 then c ctx 46 else c ctx 47;
        Ctx.ok0
      end)

let h_set_gsi_routing ctx args =
  c ctx 49;
  with_vm ctx args (fun _ vm ->
      if not vm.irqchip then begin
        c ctx 50;
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 51;
        let nr = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
        (* An empty HV route set frees the old table without
           republishing a new one. *)
        if Int64.compare nr 0L = 0 then begin
          c ctx 52;
          vm.hv_routing_stale <- true
        end
        else vm.hv_routing_stale <- false;
        Ctx.ok0
      end)

let h_set_lapic ctx args =
  c ctx 54;
  with_vcpu ctx args (fun _ v ->
      match vm_of_vcpu ctx v with
      | Some vm when not vm.irqchip ->
        c ctx 55;
        (* Setting LAPIC state with no in-kernel irqchip trips a
           WARN_ON in the arch ioctl. *)
        Ctx.bug ctx "kvm_arch_vcpu_ioctl_warn";
        Ctx.err Errno.EINVAL
      | Some _ ->
        c ctx 56;
        v.lapic_set <- true;
        Ctx.ok0
      | None ->
        c ctx 57;
        Ctx.err Errno.ENODEV)

let h_enable_cap ctx args =
  c ctx 59;
  with_vcpu ctx args (fun _ v ->
      let cap = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      if Int64.compare cap 64L > 0 then begin
        c ctx 60;
        Ctx.err Errno.EINVAL
      end
      else begin
        c ctx 61;
        v.cap_enabled <- true;
        Ctx.ok0
      end)

let h_smi ctx args =
  c ctx 63;
  with_vcpu ctx args (fun _ v ->
      c ctx 64;
      v.smi_pending <- true;
      Ctx.ok0)

let h_set_guest_debug ctx args =
  c ctx 66;
  with_vcpu ctx args (fun _ v ->
      let control = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      if Int64.logand control 1L = 0L then begin
        c ctx 67;
        v.guest_debug <- false;
        Ctx.ok0
      end
      else begin
        c ctx 68;
        v.guest_debug <- true;
        Ctx.ok0
      end)

let h_register_coalesced ctx args =
  c ctx 70;
  with_vm ctx args (fun _ vm ->
      let addr = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      c ctx 71;
      vm.coalesced_zones <- addr :: vm.coalesced_zones;
      Ctx.ok0)

let h_unregister_coalesced ctx args =
  c ctx 73;
  with_vm ctx args (fun _ vm ->
      let addr = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      if List.mem addr vm.coalesced_zones then begin
        c ctx 74;
        vm.coalesced_zones <- List.filter (fun a -> a <> addr) vm.coalesced_zones;
        Ctx.ok0
      end
      else if vm.coalesced_zones <> [] then begin
        (* Unregistering a zone that was never registered while others
           exist walks off the zone list (GPF, 5.11). *)
        c ctx 75;
        Ctx.bug ctx "kvm_vm_ioctl_unregister_coalesced_mmio";
        Ctx.err Errno.ENXIO
      end
      else begin
        c ctx 76;
        Ctx.err Errno.ENXIO
      end)

let h_ioeventfd ctx args =
  c ctx 78;
  with_vm ctx args (fun _ vm ->
      let r = Arg.nth args 2 in
      let addr = Arg.as_int (Arg.field r 0) in
      let deassign = Int64.logand (Arg.as_int (Arg.field r 1)) 4L <> 0L in
      if deassign then
        if List.mem addr vm.io_bus_devs then begin
          c ctx 79;
          vm.io_bus_devs <- List.filter (fun a -> a <> addr) vm.io_bus_devs;
          Ctx.ok0
        end
        else if List.length vm.io_bus_devs >= 1 then begin
          (* Failed unregister leaks the bus copy (5.11). *)
          c ctx 80;
          Ctx.bug ctx "kvm_io_bus_unregister_dev";
          Ctx.err Errno.ENOENT
        end
        else begin
          c ctx 81;
          Ctx.err Errno.ENOENT
        end
      else begin
        c ctx 82;
        vm.io_bus_devs <- addr :: vm.io_bus_devs;
        Ctx.ok0
      end)

(* ---- register access, NMI, TSS, dirty log ---- *)

let h_get_regs ctx args =
  c ctx 804;
  with_vcpu ctx args (fun _ v ->
      c ctx 805;
      if v.runs > 0 then c ctx 806;
      Ctx.ok0)

let h_set_regs ctx args =
  c ctx 808;
  with_vcpu ctx args (fun _ v ->
      let rip = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      c ctx 809;
      v.regs_set <- true;
      if Int64.compare rip 0x100000L > 0 then c ctx 810;
      Ctx.ok0)

let h_nmi ctx args =
  c ctx 812;
  with_vcpu ctx args (fun _ v ->
      c ctx 813;
      v.nmi_pending <- true;
      Ctx.ok0)

let h_set_tss_addr ctx args =
  c ctx 815;
  with_vm ctx args (fun _ vm ->
      let addr = Arg.as_int (Arg.nth args 2) in
      if Int64.logand addr 0xfffL <> 0L then begin
        c ctx 816;
        Ctx.err Errno.EINVAL (* must be page aligned *)
      end
      else if vm.tss_addr <> None then begin
        c ctx 817;
        Ctx.err Errno.EEXIST
      end
      else begin
        c ctx 818;
        vm.tss_addr <- Some addr;
        Ctx.ok0
      end)

let h_get_dirty_log ctx args =
  c ctx 820;
  with_vm ctx args (fun _ vm ->
      let slot = Arg.as_int (Arg.field (Arg.nth args 2) 0) in
      if not (List.mem slot vm.dirty_log_slots) then begin
        (* The slot exists but was not created with
           KVM_MEM_LOG_DIRTY_PAGES. *)
        c ctx 821;
        Ctx.err Errno.ENOENT
      end
      else begin
        c ctx 822;
        c ctx (824 + min 7 (List.length vm.memslots));
        Ctx.ok0
      end)

let descriptions =
  {|
# KVM virtualization.
resource fd_kvm[fd]
resource fd_kvm_vm[fd]
resource fd_kvm_vcpu[fd]
flags kvm_mem_flags = 0x0 0x1 0x2
struct kvm_userspace_memory_region { slot int32, mflags flags[kvm_mem_flags], guest_phys_addr int64, memory_size int64, userspace_addr vma }
struct kvm_irq_level { irq int32, level int32 }
struct kvm_gsi_routing { nr int32[0:8], pad int32, entries array[int64, 0:8] }
struct kvm_lapic_state { regs buffer[in] }
struct kvm_enable_cap { cap int32, eflags int32, args int64 }
struct kvm_guest_debug { control int32, pad int32, debugreg int64 }
struct kvm_coalesced_mmio_zone { addr int64, size int32, pad int32 }
struct kvm_ioeventfd { addr int64, ioflags int32, datamatch int32 }
openat$kvm(dirfd fd, file filename["/dev/kvm"], oflags flags[open_flags]) fd_kvm
ioctl$KVM_CREATE_VM(fd fd_kvm, cmd const[0xae01]) fd_kvm_vm
ioctl$KVM_CREATE_VCPU(fd fd_kvm_vm, cmd const[0xae41], id int32[0:8]) fd_kvm_vcpu
ioctl$KVM_SET_USER_MEMORY_REGION(fd fd_kvm_vm, cmd const[0x4020ae46], region ptr[in, kvm_userspace_memory_region])
ioctl$KVM_RUN(fd fd_kvm_vcpu, cmd const[0xae80])
ioctl$KVM_CREATE_IRQCHIP(fd fd_kvm_vm, cmd const[0xae60])
ioctl$KVM_IRQ_LINE(fd fd_kvm_vm, cmd const[0x4008ae61], line ptr[in, kvm_irq_level])
ioctl$KVM_SET_GSI_ROUTING(fd fd_kvm_vm, cmd const[0x4008ae6a], routing ptr[in, kvm_gsi_routing])
ioctl$KVM_SET_LAPIC(fd fd_kvm_vcpu, cmd const[0x4400ae8f], lapic ptr[in, kvm_lapic_state])
ioctl$KVM_ENABLE_CAP_CPU(fd fd_kvm_vcpu, cmd const[0x4068aea3], cap ptr[in, kvm_enable_cap])
ioctl$KVM_SMI(fd fd_kvm_vcpu, cmd const[0xaeb7])
ioctl$KVM_SET_GUEST_DEBUG(fd fd_kvm_vcpu, cmd const[0x4048ae9b], dbg ptr[in, kvm_guest_debug])
ioctl$KVM_REGISTER_COALESCED_MMIO(fd fd_kvm_vm, cmd const[0x4010ae67], zone ptr[in, kvm_coalesced_mmio_zone])
ioctl$KVM_UNREGISTER_COALESCED_MMIO(fd fd_kvm_vm, cmd const[0x4010ae68], zone ptr[in, kvm_coalesced_mmio_zone])
ioctl$KVM_IOEVENTFD(fd fd_kvm_vm, cmd const[0x4040ae79], eventfd ptr[in, kvm_ioeventfd])
struct kvm_regs_sim { rip int64, rsp int64, rflags int64 }
struct kvm_dirty_log_sim { slot int32, pad int32, bitmap vma }
ioctl$KVM_GET_REGS(fd fd_kvm_vcpu, cmd const[0x8090ae81], regs ptr[out, kvm_regs_sim])
ioctl$KVM_SET_REGS(fd fd_kvm_vcpu, cmd const[0x4090ae82], regs ptr[in, kvm_regs_sim])
ioctl$KVM_NMI(fd fd_kvm_vcpu, cmd const[0xae9a])
ioctl$KVM_SET_TSS_ADDR(fd fd_kvm_vm, cmd const[0xae47], addr intptr)
ioctl$KVM_GET_DIRTY_LOG(fd fd_kvm_vm, cmd const[0x4010ae42], log ptr[inout, kvm_dirty_log_sim])
|}

let sub =
  Subsystem.make ~name:"kvm" ~descriptions
    ~handlers:
      [
        ("openat$kvm", h_open_kvm);
        ("ioctl$KVM_CREATE_VM", h_create_vm);
        ("ioctl$KVM_CREATE_VCPU", h_create_vcpu);
        ("ioctl$KVM_SET_USER_MEMORY_REGION", h_set_memory_region);
        ("ioctl$KVM_RUN", h_run);
        ("ioctl$KVM_CREATE_IRQCHIP", h_create_irqchip);
        ("ioctl$KVM_IRQ_LINE", h_irq_line);
        ("ioctl$KVM_SET_GSI_ROUTING", h_set_gsi_routing);
        ("ioctl$KVM_SET_LAPIC", h_set_lapic);
        ("ioctl$KVM_ENABLE_CAP_CPU", h_enable_cap);
        ("ioctl$KVM_SMI", h_smi);
        ("ioctl$KVM_SET_GUEST_DEBUG", h_set_guest_debug);
        ("ioctl$KVM_REGISTER_COALESCED_MMIO", h_register_coalesced);
        ("ioctl$KVM_UNREGISTER_COALESCED_MMIO", h_unregister_coalesced);
        ("ioctl$KVM_IOEVENTFD", h_ioeventfd);
        ("ioctl$KVM_GET_REGS", h_get_regs);
        ("ioctl$KVM_SET_REGS", h_set_regs);
        ("ioctl$KVM_NMI", h_nmi);
        ("ioctl$KVM_SET_TSS_ADDR", h_set_tss_addr);
        ("ioctl$KVM_GET_DIRTY_LOG", h_get_dirty_log);
      ]
    ()
