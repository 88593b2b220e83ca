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

let next p =
  let vm = p.vms.(p.cursor) in
  p.cursor <- (p.cursor + 1) mod Array.length p.vms;
  vm

let run p ?fault_call prog = Vm.run (next p) ?fault_call prog

let run_probe p prog = run p prog  (* perfbench is its only reader *)
let cache_stats _ = None  (* perfbench is its only reader *)
