let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the quartiles printed here are the ones the spread rule
   is judged on. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* The nearest rank of the [p]-th percentile among [n] samples; the
   epsilon keeps e.g. 99.9% of 1000 at rank 999 despite rounding. *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank n p - 1)))

(* Samples strictly above the [p]-th percentile. *)
let beyond n p = n - rank n p

(* A timing is reported as its median plus the highest percentile that
   still has at least ten samples beyond it; with fewer samples only
   the median is meaningful. *)
let highest_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) [ 99.9; 99.0; 95.0; 90.0; 75.0 ]
