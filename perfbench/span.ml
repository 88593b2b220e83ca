(* Layer spans recorded from outside the program: the benchmark wraps
   each call into a layer's public functions in [span]. Spans nest on
   a fixed-depth stack and are folded into per-layer totals as they
   close, so memory stays constant however many spans a campaign
   opens. *)

type t = {
  clock : unit -> float;
  calls : int array;
  self : float array;  (* duration minus the time covered by child spans *)
  total : float array;  (* inclusive duration *)
  st_layer : int array;
  st_start : float array;
  st_child : float array;
  mutable depth : int;
}

let max_depth = 64

let create ?(clock = Unix.gettimeofday) n =
  {
    clock;
    calls = Array.make n 0;
    self = Array.make n 0.0;
    total = Array.make n 0.0;
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0.0;
    st_child = Array.make max_depth 0.0;
    depth = 0;
  }

let enter t layer =
  let d = t.depth in
  if d >= max_depth then invalid_arg "Span.enter: nesting too deep";
  t.st_layer.(d) <- layer;
  t.st_child.(d) <- 0.0;
  t.depth <- d + 1;
  t.st_start.(d) <- t.clock ()

let leave t =
  let stop = t.clock () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Span.leave: no open span";
  let layer = t.st_layer.(d) in
  let dur = stop -. t.st_start.(d) in
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.total.(layer) <- t.total.(layer) +. dur;
  t.self.(layer) <- t.self.(layer) +. (dur -. t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) +. dur;
  t.depth <- d

let span t layer f =
  enter t layer;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let calls t layer = t.calls.(layer)
let self t layer = t.self.(layer)
let total t layer = t.total.(layer)

let attributed t ~root =
  if t.total.(root) <= 0.0 then 0.0
  else 1.0 -. (t.self.(root) /. t.total.(root))
