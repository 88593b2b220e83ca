(* The one debug-validation switch (the HEALER_DEBUG_VALIDATE
   contract). Progcheck's program checks, the runtime lockdep check
   and the effect-trace check in [Kernel.exec_call] all read it, and
   the kernel records its access log only while it is armed. *)

let of_env = function
  | None -> false
  | Some v -> (
    match String.lowercase_ascii (String.trim v) with
    | "" | "0" | "false" | "no" | "off" -> false
    | _ -> true)

let armed = ref (of_env (Sys.getenv_opt "HEALER_DEBUG_VALIDATE"))
let enabled () = !armed
let set b = armed := b
