module Target = Healer_syzlang.Target

exception Malformed of string

let fail msg = raise (Malformed msg)
let magic = "HLR1"

(* Unboxed fast path: LEB128 of a non-negative native int. The boxed
   Int64 loop below costs several allocations per byte. *)
let put_uint buf i =
  let x = ref i in
  let continue = ref true in
  while !continue do
    let byte = !x land 0x7f in
    x := !x lsr 7;
    if !x = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let put_uvarint buf v =
  if Int64.compare v 0L >= 0 && Int64.compare v 0x3FFFFFFFFFFFFFFFL <= 0 then
    put_uint buf (Int64.to_int v)
  else begin
    let v = ref v in
    let continue = ref true in
    while !continue do
      let byte = Int64.to_int (Int64.logand !v 0x7fL) in
      v := Int64.shift_right_logical !v 7;
      if Int64.equal !v 0L then begin
        Buffer.add_char buf (Char.chr byte);
        continue := false
      end
      else Buffer.add_char buf (Char.chr (byte lor 0x80))
    done
  end

let get_uvarint s pos =
  let v = ref 0L in
  let shift = ref 0 in
  let continue = ref true in
  while !continue do
    if !pos >= String.length s then fail "truncated varint";
    if !shift > 63 then fail "varint too long";
    let byte = Char.code s.[!pos] in
    incr pos;
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (byte land 0x7f)) !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !v

let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag v =
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

(* Same bytes as [put_uvarint (zigzag v)]: for |v| < 2^61 the zigzag
   fits the 63-bit native int, so the whole encode stays unboxed. *)
let put_svarint buf v =
  if
    Int64.compare v (-0x1000000000000000L) >= 0
    && Int64.compare v 0x1000000000000000L < 0
  then begin
    let x = Int64.to_int v in
    put_uint buf ((x lsl 1) lxor (x asr 62))
  end
  else put_uvarint buf (zigzag v)
let get_svarint s pos = unzigzag (get_uvarint s pos)

let put_bytes buf b =
  put_uint buf (Bytes.length b);
  Buffer.add_bytes buf b

let put_string buf s =
  put_uint buf (String.length s);
  Buffer.add_string buf s

let get_bytes s pos =
  let n = Int64.to_int (get_uvarint s pos) in
  if n < 0 || !pos + n > String.length s then fail "truncated bytes";
  let b = Bytes.of_string (String.sub s !pos n) in
  pos := !pos + n;
  b

let rec put_value buf (v : Value.t) =
  match v with
  | Value.Int x ->
    Buffer.add_char buf '\000';
    put_svarint buf x
  | Value.Res_ref i ->
    Buffer.add_char buf '\001';
    put_uint buf i
  | Value.Res_special x ->
    Buffer.add_char buf '\002';
    put_svarint buf x
  | Value.Str s ->
    Buffer.add_char buf '\003';
    put_string buf s
  | Value.Buf b ->
    Buffer.add_char buf '\004';
    put_bytes buf b
  | Value.Group vs ->
    Buffer.add_char buf '\005';
    put_uint buf (List.length vs);
    List.iter (put_value buf) vs
  | Value.Ptr inner ->
    Buffer.add_char buf '\006';
    put_value buf inner
  | Value.Null -> Buffer.add_char buf '\007'
  | Value.Vma a ->
    Buffer.add_char buf '\b';
    put_uvarint buf a

(* Generated and corpus programs nest values at most 5 deep. The cap
   keeps a hostile chain of [Ptr] or [Group] tags from recursing once
   per input byte. *)
let max_depth = 32

let rec get_value depth s pos =
  if !pos >= String.length s then fail "truncated value";
  if depth > max_depth then fail "value nested too deep";
  let tag = Char.code s.[!pos] in
  incr pos;
  let depth = depth + 1 in
  match tag with
  | 0 -> Value.Int (get_svarint s pos)
  | 1 -> Value.Res_ref (Int64.to_int (get_uvarint s pos))
  | 2 -> Value.Res_special (get_svarint s pos)
  | 3 -> Value.Str (Bytes.to_string (get_bytes s pos))
  | 4 -> Value.Buf (get_bytes s pos)
  | 5 ->
    let n = Int64.to_int (get_uvarint s pos) in
    if n < 0 || n > 4096 then fail "group too large";
    Value.Group (List.init n (fun _ -> get_value depth s pos))
  | 6 -> Value.Ptr (get_value depth s pos)
  | 7 -> Value.Null
  | 8 -> Value.Vma (get_uvarint s pos)
  | t -> fail (Printf.sprintf "unknown value tag %d" t)

let put_call buf (c : Prog.call) =
  put_uint buf c.Prog.syscall.Healer_syzlang.Syscall.id;
  put_uint buf (List.length c.Prog.args);
  List.iter (put_value buf) c.Prog.args

let encode (p : Prog.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  put_uvarint buf (Int64.of_int (Prog.length p));
  Array.iter (put_call buf) p.calls;
  Buffer.contents buf

let decode target s =
  if String.length s < 4 || String.sub s 0 4 <> magic then fail "bad magic";
  let pos = ref 4 in
  let n = Int64.to_int (get_uvarint s pos) in
  if n < 0 || n > 4096 then fail "call count out of range";
  let calls =
    List.init n (fun _ ->
        let id = Int64.to_int (get_uvarint s pos) in
        let syscall =
          try Target.syscall target id
          with Invalid_argument _ -> fail "unknown syscall id"
        in
        let argc = Int64.to_int (get_uvarint s pos) in
        if argc < 0 || argc > 64 then fail "arg count out of range";
        let args = List.init argc (fun _ -> get_value 0 s pos) in
        { Prog.syscall; args })
  in
  if !pos <> String.length s then fail "trailing bytes";
  let p = Prog.of_list calls in
  (* Under HEALER_DEBUG_VALIDATE a syntactically well-formed encoding
     of a type-invalid program is still malformed input: the decoder
     is the trust boundary for persisted corpora. *)
  if Healer_kernel.Validate.enabled () then begin
    match Progcheck.errors target p with
    | [] -> ()
    | errs ->
      fail
        (Fmt.str "@[<v>decoded program fails validation:@,%a@]"
           Fmt.(list ~sep:cut Healer_util.Diagnostic.pp)
           errs)
  end;
  p
