type t =
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Containers nested deeper than this print on one line. *)
let broken_levels = 2

let to_string v =
  let b = Buffer.create 1024 in
  let string s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  let newline depth =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make (2 * depth) ' ')
  in
  let seq depth opening closing item xs =
    let broken = depth < broken_levels && xs <> [] in
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        if broken then newline (depth + 1) else if i > 0 then Buffer.add_char b ' ';
        item x)
      xs;
    if broken then newline depth;
    Buffer.add_char b closing
  in
  let rec value depth = function
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Fixed (n, x) ->
        if Float.is_finite x then Printf.bprintf b "%.*f" n x else Buffer.add_string b "null"
    | String s -> string s
    | List xs -> seq depth '[' ']' (value (depth + 1)) xs
    | Obj kvs ->
        seq depth '{' '}'
          (fun (k, x) ->
            string k;
            Buffer.add_string b ": ";
            value (depth + 1) x)
          kvs
  in
  value 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b
