module Rng = Healer_util.Rng
module Target = Healer_syzlang.Target
module Syscall = Healer_syzlang.Syscall
module Prog = Healer_executor.Prog

let max_prog_len = 32

(* All assembly runs on a {!Prog.Builder.t}: producer-chain insertion
   adds one call at a time, which on the immutable program costs a
   full copy per call. *)

(* Positions [< upto] of the [len] calls (syscall id of position [k]
   given by [id_at]) that produce a kind compatible with [kind]. *)
let producers_in target ~len ~id_at ~upto kind =
  let mask = Target.is_producer target kind in
  let acc = ref [] in
  for k = min upto len - 1 downto 0 do
    if mask.(id_at k) then acc := k :: !acc
  done;
  !acc

let producers_for target p ~upto kind =
  producers_in target ~len:(Prog.length p)
    ~id_at:(fun k -> (Prog.call p k).Prog.syscall.Syscall.id)
    ~upto kind

let producers_for_b target b ~upto kind =
  producers_in target ~len:(Prog.Builder.length b)
    ~id_at:(fun k -> (Prog.Builder.call b k).Prog.syscall.Syscall.id)
    ~upto kind

let make_call_b rng target b ~at (call : Syscall.t) =
  let ctx =
    {
      Value_gen.target;
      producers = (fun kind -> producers_for_b target b ~upto:at kind);
    }
  in
  { Prog.syscall = call; args = Value_gen.gen_args rng ctx call }

(* Insert producers for the consumed kinds of [call] that have no
   compatible producer before [at]; returns the position where [call]
   itself should now go. *)
let rec ensure_producers_b rng target b ~at ~depth (call : Syscall.t) =
  if depth <= 0 || Prog.Builder.length b >= max_prog_len then at
  else
    List.fold_left
      (fun at kind ->
        if Prog.Builder.length b >= max_prog_len then at
        else if producers_for_b target b ~upto:at kind <> [] then at
        else
          match Target.producers_of target kind with
          | [] -> at
          | cands ->
            let producer = Rng.pick rng cands in
            if producer.Syscall.id = call.Syscall.id then at
            else begin
              let at' =
                ensure_producers_b rng target b ~at ~depth:(depth - 1) producer
              in
              if Prog.Builder.length b >= max_prog_len then at'
              else begin
                let pc = make_call_b rng target b ~at:at' producer in
                Prog.Builder.insert b at' pc;
                at' + 1
              end
            end)
      at (Target.consumes target call)

let insert_call_b rng target b ~at (call : Syscall.t) =
  let at = min at (Prog.Builder.length b) in
  let at = ensure_producers_b rng target b ~at ~depth:3 call in
  if Prog.Builder.length b < max_prog_len then
    let c = make_call_b rng target b ~at call in
    Prog.Builder.insert b at c

let append_call_b rng target b call =
  insert_call_b rng target b ~at:(Prog.Builder.length b) call
