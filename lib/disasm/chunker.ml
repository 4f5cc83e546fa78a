(* Routine-granular chunking of the text segment, for the incremental
   (delta) IR path.

   The chunker is a pure function of the binary's bytes: it performs one
   cheap linear-framing pass (the same sequential decode-or-resync
   discipline as {!Linear.sweep}, without the cover array or boundary
   table) and cuts the text into chunks

   - at {e routine boundaries}: directly after an instruction with no
     fallthrough (ret / jmp / jmpt / jmpr / hlt), once a minimum chunk
     size has accumulated — linear framing restarts cleanly at such a
     point, so re-decoding a chunk in isolation reproduces the global
     sweep's framing within it;
   - by {e content-defined chunking} over stretches the framing pass
     cannot attribute (long data runs, or pathological routines that
     exceed the maximum chunk size without a sync point): a rolling hash
     over the raw bytes picks the cut, so an insertion upstream does not
     shift every later cut point.

   Alongside the cuts, the same pass extracts every statically visible
   text-to-text reference (direct branch targets, address-sized
   immediates, jump-table entries) plus the data-section address scan and
   the program entry.  Grouped by target chunk and expressed relative to
   the chunk base, these form each chunk's {e inbound fingerprint}: the
   part of a routine's IR that depends on the rest of the program.  A
   caller that changes without changing its references to a routine
   leaves that routine's fingerprint — and therefore its cache key —
   untouched. *)

type ref_kind = Branch | Immediate | Table | Data_word | Entry_point

let ref_kind_code = function
  | Branch -> 'b'
  | Immediate -> 'i'
  | Table -> 't'
  | Data_word -> 'd'
  | Entry_point -> 'e'

type chunk = {
  lo : int;  (** first text address of the chunk *)
  hi : int;  (** one past the last address *)
  synced : bool;
      (** [true] when [lo] is a linear-framing restart point (start of
          text or directly after a no-fallthrough instruction); CDC cuts
          inside unattributed stretches are unsynced. *)
  inbound : (ref_kind * int) list;
      (** sorted, deduplicated (kind, target - lo) pairs: every
          statically visible reference into this chunk, from anywhere in
          the program (including itself), chunk-relative. *)
}

type t = { base : int; len : int; chunks : chunk array }

(* CDC parameters: ~1 KiB expected chunk inside unsynced stretches. *)
let min_chunk = 96
let max_chunk = 4096
let cdc_mask = 0x3ff

let jump_table_entries binary ~lo ~hi table =
  let rec go i acc =
    if i >= 256 then List.rev acc
    else
      match Zelf.Binary.read32 binary (table + (i * 4)) with
      | Some v when v >= lo && v < hi -> go (i + 1) (v :: acc)
      | _ -> List.rev acc
  in
  go 0 []

let immediate_code_refs ~lo ~hi insn =
  let open Zvm.Insn in
  let candidates =
    match insn with
    | Movi (_, v) | Pushi v | Leaa (_, v) | Cmpi (_, v) -> [ v ]
    | _ -> []
  in
  List.filter (fun v -> v >= lo && v < hi) candidates

let scan binary =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let len = text.Zelf.Section.size in
  let lo = base and hi = base + len in
  let data = text.Zelf.Section.data in
  (* One linear-framing pass: collect sync points (offsets directly after
     a no-fallthrough instruction) and outbound references. *)
  let refs = ref [] in
  let add_ref kind target = refs := (kind, target) :: !refs in
  let sync = Array.make (len + 1) false in
  sync.(0) <- true;
  sync.(len) <- true;
  (* Framing boundaries: every offset where the linear pass attempts a
     decode (instruction starts and gap bytes).  Cuts are restricted to
     these, so no cut ever lands inside an instruction — a mid-instruction
     cut would make the chunk's isolated re-decode diverge from the
     global sweep forever.  Boundaries occur at least every 7 bytes (the
     longest instruction), so restricting cuts costs at most that much
     slack past a desired cut point. *)
  let boundary = Array.make (len + 1) false in
  boundary.(len) <- true;
  let pos = ref base in
  while !pos < hi do
    boundary.(!pos - base) <- true;
    match Zvm.Decode.decode_sub data ~pos:(!pos - base) ~limit:len with
    | Ok (insn, ilen) ->
        (match Zvm.Insn.static_target ~at:!pos insn with
        | Some t when t >= lo && t < hi -> add_ref Branch t
        | _ -> ());
        List.iter (add_ref Immediate) (immediate_code_refs ~lo ~hi insn);
        (match insn with
        | Zvm.Insn.Jmpt (_, table) ->
            List.iter (add_ref Table) (jump_table_entries binary ~lo ~hi table)
        | _ -> ());
        if not (Zvm.Insn.has_fallthrough insn) then sync.(!pos + ilen - base) <- true;
        pos := !pos + ilen
    | Error _ -> incr pos
  done;
  List.iter (fun a -> add_ref Data_word a) (Recursive.scan_for_text_addresses binary);
  if binary.Zelf.Binary.entry >= lo && binary.Zelf.Binary.entry < hi then
    add_ref Entry_point binary.Zelf.Binary.entry;
  (* Cut points: prefer the first sync point once [min_chunk] bytes have
     accumulated; failing that for [max_chunk] bytes, fall back to a
     rolling-hash cut over the raw bytes (position-independent), and as a
     last resort cut hard at [max_chunk]. *)
  let cuts = ref [] (* descending offsets, excluding 0 and len *) in
  let start = ref 0 in
  let roll = ref 0 in
  let off = ref 0 in
  while !off < len do
    let b = Char.code (Bytes.get data !off) in
    roll := ((!roll * 33) + b) land 0xffffff;
    incr off;
    let size = !off - !start in
    if !off < len then
      let cut_here =
        boundary.(!off)
        &&
        if sync.(!off) then size >= min_chunk
        else size >= max_chunk || (size >= min_chunk && !roll land cdc_mask = cdc_mask)
      in
      if cut_here then begin
        cuts := !off :: !cuts;
        start := !off;
        roll := 0
      end
  done;
  let bounds = Array.of_list (List.rev (len :: !cuts)) in
  let n = Array.length bounds in
  let chunks =
    Array.init n (fun i ->
        let clo = if i = 0 then 0 else bounds.(i - 1) in
        { lo = base + clo; hi = base + bounds.(i); synced = sync.(clo); inbound = [] })
  in
  (* Distribute references to their target chunks, chunk-relative. *)
  let chunk_of addr =
    (* binary search: greatest i with chunks.(i).lo <= addr *)
    let l = ref 0 and r = ref (n - 1) in
    while !l < !r do
      let m = (!l + !r + 1) / 2 in
      if chunks.(m).lo <= addr then l := m else r := m - 1
    done;
    !l
  in
  let per_chunk = Array.make n [] in
  List.iter
    (fun (kind, target) ->
      let i = chunk_of target in
      per_chunk.(i) <- (kind, target - chunks.(i).lo) :: per_chunk.(i))
    !refs;
  let chunks =
    Array.mapi
      (fun i c ->
        let inbound =
          List.sort_uniq
            (fun (k1, r1) (k2, r2) -> compare (r1, ref_kind_code k1) (r2, ref_kind_code k2))
            per_chunk.(i)
        in
        { c with inbound })
      chunks
  in
  { base; len; chunks }

let chunk_bytes binary (c : chunk) =
  let b = Buffer.create (c.hi - c.lo) in
  for a = c.lo to c.hi - 1 do
    Buffer.add_char b (Char.chr (Option.value ~default:0 (Zelf.Binary.read8 binary a)))
  done;
  Buffer.contents b

(* Up to 6 bytes past the chunk end (the longest instruction is 7 bytes,
   so a decode attempted at the last chunk byte can read 6 bytes beyond):
   including them in the key means a chunk's framing and failed-decode
   behaviour are a pure function of its key material. *)
let chunk_suffix binary (c : chunk) =
  let b = Buffer.create 6 in
  let stop = ref false in
  for i = 0 to 5 do
    if not !stop then
      match Zelf.Binary.read8 binary (c.hi + i) with
      | Some v -> Buffer.add_char b (Char.chr v)
      | None -> stop := true
  done;
  Buffer.contents b

let inbound_string (c : chunk) =
  let b = Buffer.create 64 in
  List.iter
    (fun (k, rel) ->
      Buffer.add_char b (ref_kind_code k);
      Buffer.add_string b (string_of_int rel);
      Buffer.add_char b ';')
    c.inbound;
  Buffer.contents b
