type t = {
  vms : Vm.t array;
  mutable cursor : int;
}

type cache_stats = { hits : int; misses : int }  (* perfbench is its only reader *)

(* [exec_cache] is ignored; perfbench is its only reader. *)
let create ?san ?features ?exec_cache:_ ~version ~size () =
  if size <= 0 then invalid_arg "Pool.create: size must be positive";
  let vms = Array.init size (fun id -> Vm.create ?san ?features ~version ~id ()) in
  { vms; cursor = 0 }

let size p = Array.length p.vms

let next p =
  let vm = p.vms.(p.cursor) in
  p.cursor <- (p.cursor + 1) mod Array.length p.vms;
  vm

let run p ?fault_call prog = Vm.run (next p) ?fault_call prog

let run_probe p prog = run p prog  (* perfbench is its only reader *)
let cache_stats _ = None  (* perfbench is its only reader *)

let fold f init p = Array.fold_left f init p.vms

let total_execs p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.execs) 0 p
let total_crashes p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.crashes) 0 p
let total_resets p = fold (fun acc vm -> acc + (Vm.stats vm).Vm.resets) 0 p
let iter f p = Array.iter f p.vms
