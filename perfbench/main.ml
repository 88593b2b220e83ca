let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       (main.exe child WORKLOAD MODE SEED T0 DIR runs one campaign,\n\
    \        main.exe calib one calibration)";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: [ workload; mode; seed; t0; dir ] ->
    let workload =
      match List.assoc_opt workload Perfbench.Bench.workloads with
      | Some w -> w
      | None -> usage ()
    in
    let mode =
      match mode with
      | "plain" -> Perfbench.Child.Plain
      | "inproc" -> Perfbench.Child.Inproc
      | "traced" -> Perfbench.Child.Traced
      | _ -> usage ()
    in
    Perfbench.Child.run workload mode ~seed:(int_of_string seed)
      ~t0:(float_of_string t0) ~dir
  | [ _; "calib" ] -> Perfbench.Child.calibrate ()
  | _ :: args ->
    let rec opts acc = function
      | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        opts ((key, v) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let num k f = match f (get k) with Some v -> v | None -> usage () in
    let trace =
      match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    Perfbench.Bench.main ~workload:(get "--workload")
      ~seed:(num "--seed" int_of_string_opt)
      ~seconds:(num "--seconds" float_of_string_opt)
      ~trace
  | [] -> usage ()
