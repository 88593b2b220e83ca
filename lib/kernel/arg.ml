type t =
  | Int of int64
  | Str of string
  | Buf of bytes
  | Rec of t list
  | Nothing

let as_int = function
  | Int v -> v
  | Str _ | Buf _ | Rec _ | Nothing -> 0L

let as_fd a = Int64.to_int (as_int a)

let as_buf = function
  | Buf b -> b
  | Str s -> Bytes.of_string s
  | Int _ | Rec _ | Nothing -> Bytes.empty

let as_str = function
  | Str s -> s
  | Buf b -> Bytes.to_string b
  | Int _ | Rec _ | Nothing -> ""

let as_rec = function Rec fs -> fs | Int _ | Str _ | Buf _ | Nothing -> []

let is_null = function
  | Nothing -> true
  | Int _ | Str _ | Buf _ | Rec _ -> false

let nth args i = match List.nth_opt args i with Some a -> a | None -> Nothing

let field arg i =
  match arg with
  | Rec fs -> nth fs i
  | Int _ | Str _ | Buf _ | Nothing -> Nothing

let rec pp ppf = function
  | Int v -> Fmt.pf ppf "0x%Lx" v
  | Str s -> Fmt.pf ppf "%S" s
  | Buf b -> Fmt.pf ppf "buf[%d]" (Bytes.length b)
  | Rec fs -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp) fs
  | Nothing -> Fmt.string ppf "nil"
