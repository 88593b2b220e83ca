(* The calibration workload: a fixed amount of OCaml work that uses
   nothing from the program under test, so no change to the program
   can change its cost. [Bench] runs it in a fresh process between
   campaigns; the time it takes there measures how fast the host is at
   that moment, and campaign times are scaled by it (see
   [Bench.normalize]).

   A shared host changes speed by up to twofold over tens of seconds,
   and that moves wall and CPU time alike. The four kernels cover the
   kinds of work a campaign does, so a slowdown that hits one kind of
   work hits the reference too: integer arithmetic, short-lived
   allocation with promotion (trees and maps), random access to a
   table larger than the L2 cache, and string building and hashing. *)

(* A 30-bit linear congruential generator: stdlib-only and fixed. *)
let next x = ((x * 1103515245) + 12345) land 0x3fffffff

let arith n =
  let x = ref 12345 and acc = ref 0 in
  for i = 1 to n do
    x := next !x;
    acc := (!acc lxor (!x lsr 3)) + i
  done;
  !acc

type tree = Leaf | Node of tree * int * tree

module Int_map = Map.Make (Int)

let trees n =
  let x = ref 1 in
  let rec build d =
    if d = 0 then Leaf
    else begin
      x := next !x;
      let v = !x land 1023 in
      Node (build (d - 1), v, build (d - 1))
    end
  in
  let rec sum = function Leaf -> 0 | Node (l, v, r) -> sum l + v + sum r in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + sum (build 12);
    let m = ref Int_map.empty in
    for i = 1 to 2000 do
      x := next !x;
      m := Int_map.add (!x land 0x1ffff) i !m
    done;
    acc := !acc + Int_map.cardinal !m
  done;
  !acc

let table n =
  let x = ref 2 in
  let h = Hashtbl.create 1024 in
  for i = 1 to 400_000 do
    x := next !x;
    Hashtbl.replace h (!x land 0x3fffff) i
  done;
  let acc = ref 0 in
  for _ = 1 to n do
    x := next !x;
    let k = !x land 0x3fffff in
    match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k 1
  done;
  !acc

let strings n =
  let x = ref 3 in
  let rand bound =
    x := next !x;
    (!x lsr 4) mod bound
  in
  let names = Array.init 4000 (fun i -> Printf.sprintf "call$%d_%x" i (i * 7919)) in
  let index = Hashtbl.create 4096 in
  Array.iteri (fun i s -> Hashtbl.replace index s i) names;
  let seen = Hashtbl.create 65536 in
  let buf = Buffer.create 256 in
  let acc = ref 0 in
  for _ = 1 to n do
    let calls =
      List.init
        (1 + rand 8)
        (fun _ -> (names.(rand 4000), Array.init (1 + rand 6) (fun _ -> rand 1_000_000)))
    in
    Buffer.clear buf;
    List.iter
      (fun (name, args) ->
        Buffer.add_string buf name;
        Array.iter (fun a -> Buffer.add_string buf (string_of_int (a land 255))) args)
      calls;
    let key = Hashtbl.hash (Buffer.contents buf) land 0xfffff in
    if not (Hashtbl.mem seen key) then Hashtbl.replace seen key calls;
    if Hashtbl.length seen > 60_000 then Hashtbl.reset seen;
    List.iter
      (fun (name, args) ->
        acc := !acc + Hashtbl.find index name + Array.fold_left ( + ) 0 args)
      calls
  done;
  !acc

(* One calibration: about 0.3 s on a 2.1 GHz Xeon vCPU. Returns a
   checksum, so the work cannot be optimised away, and is the same on
   every run. *)
let run () = arith 40_000_000 + trees 100 + table 100_000 + strings 20_000
