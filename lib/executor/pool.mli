(** A pool of virtual machines, dispatched round-robin.

    The paper's experiments give each fuzzer several QEMU instances;
    the pool abstracts picking the next available one. Per-VM
    statistics stay on each {!Vm.t}. *)

type t

val create :
  ?san:Healer_kernel.Sanitizer.config ->
  ?features:string list ->
  ?exec_cache:bool ->
  version:Healer_kernel.Version.t ->
  size:int ->
  unit ->
  t
(** [exec_cache] is ignored; perfbench is its only reader. *)

val next : t -> Vm.t
(** Round-robin choice. *)

val run : t -> ?fault_call:int -> Prog.t -> Exec.run_result
(** Run on the next VM. *)

val run_probe : t -> Prog.t -> Exec.run_result
(** [run_probe p prog] is [run p prog]; perfbench is its only reader. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : t -> cache_stats option
(** Always [None]; perfbench is its only reader. *)
