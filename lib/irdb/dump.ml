let row_to_string (r : Db.row) =
  let opt_id = function Some i -> string_of_int i | None -> "-" in
  let opt_addr = function Some a -> Printf.sprintf "0x%x" a | None -> "-" in
  Printf.sprintf "%5d: %-28s ft=%-5s tgt=%-5s pin=%-10s orig=%-10s%s%s" r.Db.id
    (Zvm.Insn.to_string r.Db.insn)
    (opt_id r.Db.fallthrough) (opt_id r.Db.target) (opt_addr r.Db.pinned)
    (opt_addr r.Db.orig_addr)
    (if r.Db.fixed then " fixed" else "")
    (match r.Db.func with Some f -> Printf.sprintf " f%d" f | None -> "")

let to_string db =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "entry: %d\n" (Db.entry db));
  List.iter
    (fun id -> Buffer.add_string buf (row_to_string (Db.row db id) ^ "\n"))
    (Db.ids db);
  Buffer.add_string buf "pins:\n";
  List.iter
    (fun (addr, id) -> Buffer.add_string buf (Printf.sprintf "  0x%x -> %d\n" addr id))
    (Db.pinned_addresses db);
  Buffer.add_string buf "funcs:\n";
  List.iter
    (fun (f : Db.func) ->
      Buffer.add_string buf (Printf.sprintf "  f%d %s entry=%d\n" f.Db.fid f.Db.fname f.Db.entry))
    (Db.funcs db);
  List.iter
    (fun s -> Buffer.add_string buf (Format.asprintf "added: %a\n" Zelf.Section.pp s))
    (Db.added_sections db);
  Buffer.contents buf

let pp ppf db = Format.pp_print_string ppf (to_string db)

(* -- binary row records: the IR snapshot's rows -- *)

module Bytebuf = Zipr_util.Bytebuf

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let at_end r = r.pos = String.length r.src

(* Reads past the end raise [Invalid_argument] (from the string
   accessors); malformed contents raise [Failure]. *)
let read_u8 r =
  let b = String.get_uint8 r.src r.pos in
  r.pos <- r.pos + 1;
  b

(* LEB128 over the 63-bit representation, so negative ints round-trip
   (in nine bytes). *)
let add_uint buf n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Bytebuf.u8 buf (!n land 0x7f lor 0x80);
    n := !n lsr 7
  done;
  Bytebuf.u8 buf !n

let rec uint_from r acc shift =
  let b = read_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc
  else if shift >= 56 then failwith "overlong integer"
  else uint_from r acc (shift + 7)

let read_uint r =
  let b = read_u8 r in
  if b < 0x80 then b else uint_from r (b land 0x7f) 7

let add_string buf s =
  add_uint buf (String.length s);
  Bytebuf.string buf s

let read_string r =
  let n = read_uint r in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let flag bit = function Some _ -> bit | None -> 0

(* A row holding the very value of the boundary at its address: the
   build hands each row its boundary's instruction, and restore does the
   same, so [==] finds every row a transform has not rewritten. *)
let is_boundary boundaries (r : Db.row) =
  match r.Db.orig_addr with
  | None -> false
  | Some a -> (
      match Hashtbl.find boundaries a with
      | insn, _ -> insn == r.Db.insn
      | exception Not_found -> false)

let add_rows ~boundaries buf db =
  (match Db.entry db with
  | -1 -> Bytebuf.u8 buf 0
  | e ->
      Bytebuf.u8 buf 1;
      add_uint buf e);
  let n = Db.count db in
  add_uint buf n;
  let field = function Some v -> add_uint buf v | None -> () in
  Db.iter db (fun r ->
      (* Ids are the record order, so a removed row cannot be written. *)
      if r.Db.id >= n then invalid_arg "Dump.add_rows: row ids are not dense";
      let shared = is_boundary boundaries r in
      Bytebuf.u8 buf
        ((if r.Db.fixed then 1 else 0)
        lor flag 2 r.Db.fallthrough lor flag 4 r.Db.target lor flag 8 r.Db.pinned
        lor flag 16 r.Db.orig_addr lor flag 32 r.Db.func
        lor if shared then 64 else 0);
      if not shared then begin
        let at = Bytebuf.length buf in
        Bytebuf.u8 buf 0;
        Zvm.Encode.encode buf r.Db.insn;
        Bytebuf.patch_u8 buf at (Bytebuf.length buf - at - 1)
      end;
      field r.Db.fallthrough;
      field r.Db.target;
      field r.Db.pinned;
      field r.Db.orig_addr;
      field r.Db.func);
  let funcs = Db.funcs db in
  add_uint buf (List.length funcs);
  List.iter
    (fun (f : Db.func) ->
      add_string buf f.Db.fname;
      add_uint buf f.Db.entry)
    funcs;
  let marks = Db.marked_pins db in
  add_uint buf (List.length marks);
  List.iter (add_uint buf) marks

let read_rows ~boundaries ~orig r =
  let entry =
    match read_u8 r with 0 -> None | 1 -> Some (read_uint r) | _ -> failwith "bad entry flag"
  in
  let n = read_uint r in
  (* Each record takes at least two bytes (a boundary row's flags and
     address), so a count the payload cannot hold is refused before it
     sizes the tables. *)
  if n > (String.length r.src - r.pos) / 2 then failwith "row count exceeds the payload";
  let db = Db.create ~size_hint:n ~orig () in
  let code = Bytes.unsafe_of_string r.src in
  let max_func = ref (-1) in
  for _ = 1 to n do
    let flags = read_u8 r in
    if flags >= 128 then failwith "bad row flags";
    let len = if flags land 64 = 0 then read_u8 r else 0 in
    let at = r.pos in
    r.pos <- r.pos + len;
    (* Spelled out, not a local function: with a closure per row a
       restore allocated 40% more and ran markedly slower. *)
    let fallthrough = if flags land 2 = 0 then None else Some (read_uint r) in
    let target = if flags land 4 = 0 then None else Some (read_uint r) in
    let pinned = if flags land 8 = 0 then None else Some (read_uint r) in
    let orig_addr = if flags land 16 = 0 then None else Some (read_uint r) in
    let func = if flags land 32 = 0 then None else Some (read_uint r) in
    let insn =
      if flags land 64 = 0 then
        match Zvm.Decode.decode_sub code ~pos:at ~limit:(at + len) with
        | Ok (insn, l) when l = len -> insn
        | _ -> failwith (Printf.sprintf "row instruction at payload offset %d does not decode" at)
      else
        match orig_addr with
        | None -> failwith "a boundary row has no address"
        | Some a -> (
            match Hashtbl.find boundaries a with
            | insn, _ -> insn
            | exception Not_found -> failwith (Printf.sprintf "no boundary at 0x%x for its row" a))
    in
    let id = Db.add_insn ?orig_addr db insn in
    let row = Db.row db id in
    row.Db.fallthrough <- fallthrough;
    row.Db.target <- target;
    row.Db.fixed <- flags land 1 <> 0;
    row.Db.func <- func;
    (match pinned with Some a -> Db.pin db id a | None -> ());
    match func with Some f when f > !max_func -> max_func := f | _ -> ()
  done;
  let n_funcs = read_uint r in
  for _ = 1 to n_funcs do
    let fname = read_string r in
    let entry = read_uint r in
    ignore (Db.add_func db ~fname ~entry)
  done;
  if !max_func >= n_funcs then failwith "a row names an undeclared function";
  let n_marks = read_uint r in
  for _ = 1 to n_marks do
    Db.mark_pin db (read_uint r)
  done;
  Option.iter (Db.set_entry db) entry;
  (* Links are raw ids: confirm they land on live rows, and the other
     structural invariants, before handing the db out. *)
  (match Db.validate db with [] -> () | issues -> failwith (String.concat "; " issues));
  db
