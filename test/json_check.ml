(* A minimal JSON validity checker for the tests of the JSON writers:
   [check] raises [Bad_json] at the first byte that breaks the grammar. *)

exception Bad_json of string

let check s =
  let n = String.length s in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad_json m)) fmt in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then
      skip_ws (i + 1)
    else i
  in
  let expect c i =
    if i < n && s.[i] = c then i + 1 else bad "expected %c at %d" c i
  in
  let rec value i =
    let i = skip_ws i in
    if i >= n then bad "eof wanting a value"
    else
      match s.[i] with
      | '{' -> obj (skip_ws (i + 1))
      | '[' -> arr (skip_ws (i + 1))
      | '"' -> string_lit (i + 1)
      | 't' -> lit "true" i
      | 'f' -> lit "false" i
      | 'n' -> lit "null" i
      | '-' | '0' .. '9' -> number i
      | c -> bad "unexpected %c at %d" c i
  and lit word i =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then i + l else bad "bad literal at %d" i
  and number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    let digits k =
      let st = !j in
      ignore k;
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if !j = st then bad "expected digit at %d" st
    in
    digits ();
    if !j < n && s.[!j] = '.' then begin incr j; digits () end;
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      incr j;
      if !j < n && (s.[!j] = '+' || s.[!j] = '-') then incr j;
      digits ()
    end;
    !j
  and string_lit i =
    if i >= n then bad "eof in string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
          if i + 1 >= n then bad "eof in escape"
          else (
            match s.[i + 1] with
            | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> string_lit (i + 2)
            | 'u' ->
                if i + 5 >= n then bad "eof in \\u escape"
                else string_lit (i + 6)
            | c -> bad "bad escape \\%c" c)
      | c when Char.code c < 0x20 -> bad "raw control byte in string at %d" i
      | _ -> string_lit (i + 1)
  and obj i =
    if i < n && s.[i] = '}' then i + 1
    else
      let rec members i =
        let i = skip_ws i in
        let i = expect '"' i in
        let i = string_lit i in
        let i = expect ':' (skip_ws i) in
        let i = skip_ws (value i) in
        if i < n && s.[i] = ',' then members (i + 1)
        else expect '}' i
      in
      members i
  and arr i =
    if i < n && s.[i] = ']' then i + 1
    else
      let rec elems i =
        let i = skip_ws (value i) in
        if i < n && s.[i] = ',' then elems (i + 1) else expect ']' i
      in
      elems i
  in
  let stop = skip_ws (value 0) in
  if stop <> n then bad "trailing bytes at %d" stop

let is_valid s = match check s with () -> true | exception Bad_json _ -> false
