type insn_id = int

type row = {
  id : insn_id;
  mutable insn : Zvm.Insn.t;
  mutable fallthrough : insn_id option;
  mutable target : insn_id option;
  mutable pinned : int option;
  mutable fixed : bool;
  orig_addr : int option;
  mutable func : int option;
}

type func = { fid : int; fname : string; entry : insn_id }

type reloc = { reloc_section : string; reloc_offset : int; reloc_target : insn_id }

type t = {
  orig_binary : Zelf.Binary.t;
  (* Dense id-indexed store: ids are allocated sequentially, so an array
     beats a hashtable on every row access (the IR build and the
     transforms touch every row several times).  [None] marks a row
     spliced out. *)
  mutable rows : row option array;
  mutable live : int;
  by_orig : (int, insn_id) Hashtbl.t;
  by_pin : (int, insn_id) Hashtbl.t;
  mutable next_id : int;
  mutable entry_id : insn_id;
  mutable functions : func list;  (* reversed *)
  mutable next_fid : int;
  mutable extra_sections : Zelf.Section.t list;  (* reversed *)
  mutable pin_prologue_insns : Zvm.Insn.t list;
  marked_pins : (int, unit) Hashtbl.t;
  mutable reloc_list : reloc list;  (* reversed *)
}

let create ?(size_hint = 1024) ~orig () =
  let size_hint = max 16 size_hint in
  {
    orig_binary = orig;
    rows = Array.make size_hint None;
    live = 0;
    by_orig = Hashtbl.create size_hint;
    by_pin = Hashtbl.create (max 64 (size_hint / 8));
    next_id = 0;
    entry_id = -1;
    functions = [];
    next_fid = 0;
    extra_sections = [];
    pin_prologue_insns = [];
    marked_pins = Hashtbl.create 32;
    reloc_list = [];
  }

let orig t = t.orig_binary

let set_row t id r =
  (if id >= Array.length t.rows then begin
     let grown = Array.make (max (2 * Array.length t.rows) (id + 1)) None in
     Array.blit t.rows 0 grown 0 (Array.length t.rows);
     t.rows <- grown
   end);
  t.rows.(id) <- Some r;
  t.live <- t.live + 1

let add_insn ?orig_addr t insn =
  let id = t.next_id in
  t.next_id <- id + 1;
  let r =
    { id; insn; fallthrough = None; target = None; pinned = None; fixed = false; orig_addr; func = None }
  in
  set_row t id r;
  (match orig_addr with Some a -> Hashtbl.replace t.by_orig a id | None -> ());
  id

let row t id =
  if id < 0 || id >= t.next_id then raise Not_found
  else match t.rows.(id) with Some r -> r | None -> raise Not_found

let find_by_orig_addr t addr = Hashtbl.find_opt t.by_orig addr

let set_fallthrough t id ft = (row t id).fallthrough <- ft
let set_target t id tgt = (row t id).target <- tgt

let pin t id addr =
  (match Hashtbl.find_opt t.by_pin addr with
  | Some other when other <> id ->
      invalid_arg (Printf.sprintf "Db.pin: address 0x%x already pinned to row %d" addr other)
  | _ -> ());
  Hashtbl.replace t.by_pin addr id;
  (row t id).pinned <- Some addr

let pinned_addresses t =
  Hashtbl.fold (fun addr id acc -> (addr, id) :: acc) t.by_pin []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let count t = t.live

let id_bound t = t.next_id

let iter t f =
  for id = 0 to t.next_id - 1 do
    match t.rows.(id) with Some r -> f r | None -> ()
  done

let ids t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    if t.rows.(id) <> None then acc := id :: !acc
  done;
  !acc

(* Identity-stealing insertion: the existing row keeps its id (so all
   incoming fallthrough/target/pin references still reach it) but now holds
   the inserted instruction; the displaced instruction moves to a fresh row
   that the modified row falls through to. *)
let insert_before t id insn =
  let r = row t id in
  (* A fixed row's bytes cannot change; stealing its identity would break
     the fixed-range guarantee. *)
  if r.fixed then invalid_arg "Db.insert_before: cannot insert before a fixed row";
  let moved_id = t.next_id in
  t.next_id <- moved_id + 1;
  let moved =
    {
      id = moved_id;
      insn = r.insn;
      fallthrough = r.fallthrough;
      target = r.target;
      pinned = None;
      fixed = false;
      orig_addr = None;
      func = r.func;
    }
  in
  set_row t moved_id moved;
  r.insn <- insn;
  r.fallthrough <- Some moved_id;
  r.target <- None;
  moved_id

let insert_after t id insn =
  let r = row t id in
  match r.fallthrough with
  | None -> invalid_arg "Db.insert_after: row has no fallthrough"
  | Some ft ->
      let nid = add_insn t insn in
      let n = row t nid in
      n.fallthrough <- Some ft;
      n.func <- r.func;
      r.fallthrough <- Some nid;
      nid

let append_chain t insns =
  match insns with
  | [] -> invalid_arg "Db.append_chain: empty chain"
  | _ ->
      let ids = List.map (fun i -> add_insn t i) insns in
      let rec link = function
        | a :: (b :: _ as rest) ->
            set_fallthrough t a (Some b);
            link rest
        | _ -> ()
      in
      link ids;
      List.hd ids

let splice_out t id =
  let r = row t id in
  if r.fixed then invalid_arg "Db.splice_out: cannot remove a fixed row";
  match r.fallthrough with
  | None -> invalid_arg "Db.splice_out: row has no fallthrough"
  | Some ft ->
      (* Redirect every incoming link to the successor. *)
      iter t (fun r2 ->
          if r2.fallthrough = Some id then r2.fallthrough <- Some ft;
          if r2.target = Some id then r2.target <- Some ft);
      if t.entry_id = id then t.entry_id <- ft;
      (match r.pinned with
      | Some a ->
          let ftr = row t ft in
          (match ftr.pinned with
          | Some other when other <> a ->
              invalid_arg
                (Printf.sprintf
                   "Db.splice_out: successor already pinned (0x%x vs 0x%x)" other a)
          | _ -> ());
          Hashtbl.replace t.by_pin a ft;
          ftr.pinned <- Some a
      | None -> ());
      (match r.orig_addr with
      | Some a when Hashtbl.find_opt t.by_orig a = Some id -> Hashtbl.remove t.by_orig a
      | _ -> ());
      t.rows.(id) <- None;
      t.live <- t.live - 1

let replace t id insn = (row t id).insn <- insn

let set_entry t id = t.entry_id <- id
let entry t = t.entry_id

let add_func t ~fname ~entry =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  t.functions <- { fid; fname; entry } :: t.functions;
  fid

let funcs t = List.rev t.functions

let set_func t id fid = (row t id).func <- Some fid

let add_section t s = t.extra_sections <- s :: t.extra_sections

let added_sections t = List.rev t.extra_sections

let set_pin_prologue t insns =
  List.iter
    (fun i ->
      if not (Zvm.Insn.has_fallthrough i) || Zvm.Insn.is_control_flow i then
        invalid_arg "Db.set_pin_prologue: prologue must be fallthrough-only")
    insns;
  t.pin_prologue_insns <- insns

let pin_prologue t = t.pin_prologue_insns

let add_reloc t ~section ~offset ~target =
  t.reloc_list <- { reloc_section = section; reloc_offset = offset; reloc_target = target } :: t.reloc_list

let relocs t = List.rev t.reloc_list

let mark_pin t addr = Hashtbl.replace t.marked_pins addr ()

let pin_is_marked t addr = Hashtbl.mem t.marked_pins addr

let marked_pins t =
  Hashtbl.fold (fun addr () acc -> addr :: acc) t.marked_pins [] |> List.sort compare

let validate t =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  let live id = id >= 0 && id < t.next_id && t.rows.(id) <> None in
  iter t (fun r ->
      let id = r.id in
      (match r.fallthrough with
      | Some ft when not (live ft) -> issue "row %d: dead fallthrough %d" id ft
      | Some _ when not (Zvm.Insn.has_fallthrough r.insn) ->
          issue "row %d: fallthrough out of %s" id (Zvm.Insn.to_string r.insn)
      | _ -> ());
      (match r.target with
      | Some tgt when not (live tgt) -> issue "row %d: dead target %d" id tgt
      | _ -> ());
      match r.pinned with
      | Some addr when Hashtbl.find_opt t.by_pin addr <> Some id ->
          issue "row %d: pin 0x%x not in the pin table" id addr
      | _ -> ())
    ;
  Hashtbl.iter
    (fun addr id ->
      if not (live id) then issue "pin 0x%x: dead row %d" addr id
      else if (row t id).pinned <> Some addr then issue "pin 0x%x: row %d disagrees" addr id)
    t.by_pin;
  if t.entry_id >= 0 && not (live t.entry_id) then issue "entry row %d is dead" t.entry_id;
  List.iter
    (fun f -> if not (live f.entry) then issue "function %s: dead entry %d" f.fname f.entry)
    t.functions;
  List.rev !issues

let next_free_vaddr t =
  let page = 4096 in
  let top =
    List.fold_left
      (fun acc (s : Zelf.Section.t) -> max acc (Zelf.Section.vend s))
      (Zelf.Binary.max_vend t.orig_binary)
      t.extra_sections
  in
  (top + page - 1) / page * page
