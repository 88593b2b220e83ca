module K = Healer_kernel

type call_result = {
  retval : int64;
  errno : K.Errno.t option;
  cov : int list;
  executed : bool;
}

type run_result = {
  calls : call_result array;
  crash : K.Crash.report option;
}

let skipped = { retval = -1L; errno = None; cov = []; executed = false }

(* Resolve a symbolic value to a runtime argument. [out] holds the
   results so far: executed calls up to the current one, [skipped]
   after it. A reference to a failed or unexecuted call degrades to
   -1, which is how a real executor passes along an invalid resource.
   (A crashed call's slot is never read: the crash ends the run.) *)
let rec resolve out (v : Value.t) : K.Arg.t =
  match v with
  | Value.Int x -> K.Arg.Int x
  | Value.Res_special x -> K.Arg.Int x
  | Value.Res_ref i ->
    let x =
      if i >= 0 && i < Array.length out then
        match out.(i) with
        | { retval; errno = None; executed = true; _ } -> retval
        | _ -> -1L
      else -1L
    in
    K.Arg.Int x
  | Value.Str s -> K.Arg.Str s
  | Value.Buf b -> K.Arg.Buf b
  | Value.Group vs -> K.Arg.Rec (List.map (resolve out) vs)
  | Value.Ptr inner -> (
    match resolve out inner with
    | K.Arg.Rec _ as r -> r
    | K.Arg.Str _ as s -> s
    | K.Arg.Buf _ as b -> b
    | K.Arg.Int _ as x -> K.Arg.Rec [ x ]
    | K.Arg.Nothing -> K.Arg.Nothing)
  | Value.Null -> K.Arg.Nothing
  | Value.Vma a -> K.Arg.Int a

let run ?fault_call ?(fresh_state = true) ?cov kernel (p : Prog.t) =
  let kernel = if fresh_state then K.Kernel.reboot kernel else kernel in
  let n = Prog.length p in
  let out = Array.make n skipped in
  (* Callers on the hot path (the VM pool) pass a long-lived collector
     so steady-state execution allocates no per-run dedup state. *)
  let cov = match cov with Some c -> c | None -> K.Coverage.create () in
  let crash = ref None in
  let stop = ref false in
  let i = ref 0 in
  while (not !stop) && !i < n do
    let idx = !i in
    let c = Prog.call p idx in
    let args = List.map (resolve out) c.Prog.args in
    let fault = fault_call = Some idx in
    K.Coverage.reset cov;
    (try
       let r = K.Kernel.exec_call kernel ~fault ~cov c.Prog.syscall args in
       out.(idx) <-
         {
           retval = r.K.Ctx.ret;
           errno = r.K.Ctx.err;
           cov = K.Coverage.blocks cov;
           executed = true;
         }
     with K.Crash.Crash { bug_key; risk } ->
       let call_name = c.Prog.syscall.Healer_syzlang.Syscall.name in
       out.(idx) <-
         {
           retval = -1L;
           errno = None;
           cov = K.Coverage.blocks cov;
           executed = true;
         };
       crash :=
         Some
           {
             K.Crash.bug_key;
             risk;
             call_index = idx;
             call_name;
             log = K.Crash.render_log ~bug_key ~risk ~call_name;
           };
       stop := true);
    (* A fault-injected call kills the executor process: the kernel
       dumps core, which can itself crash (Listing 2), and the rest of
       the program never runs. *)
    if (not !stop) && fault then begin
      K.Coverage.reset cov;
      (try
         K.Kernel.coredump kernel ~cov;
         let prev = out.(idx) in
         out.(idx) <- { prev with cov = prev.cov @ K.Coverage.blocks cov }
       with K.Crash.Crash { bug_key; risk } ->
         crash :=
           Some
             {
               K.Crash.bug_key;
               risk;
               call_index = idx;
               call_name = "coredump";
               log = K.Crash.render_log ~bug_key ~risk ~call_name:"coredump";
             });
      stop := true
    end;
    incr i
  done;
  (kernel, { calls = out; crash = !crash })

(* Sorted, duplicate-free array form of a coverage trace. Minimization
   and dynamic learning compare one reference trace against many probe
   traces; keying the reference once replaces the double sort_uniq the
   old cov_equal paid on every probe. *)
type cov_key = int array

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let cov_key l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  dedup_sorted a

let cov_matches key l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let a = dedup_sorted a in
  let n = Array.length key in
  Array.length a = n
  &&
  let rec eq i = i >= n || (a.(i) = key.(i) && eq (i + 1)) in
  eq 0

let cov_equal a b = cov_matches (cov_key a) b

(* Union of all per-call coverage: one pass to count, one scratch array
   filled and sorted in place, dedup via the shared [dedup_sorted] —
   no intermediate lists for what minimization calls per candidate. *)
let total_cov r =
  let total = ref 0 in
  Array.iter (fun cr -> List.iter (fun _ -> incr total) cr.cov) r.calls;
  if !total = 0 then []
  else begin
    let scratch = Array.make !total 0 in
    let w = ref 0 in
    Array.iter
      (fun cr ->
        List.iter
          (fun b ->
            scratch.(!w) <- b;
            incr w)
          cr.cov)
      r.calls;
    Array.sort Int.compare scratch;
    Array.to_list (dedup_sorted scratch)
  end
