type t = {
  base : int;
  len : int;
  cover : int array;
  insns : (int, Zvm.Insn.t * int) Hashtbl.t;
  seeds : int list;
}

let scan_for_text_addresses binary =
  let text = Zelf.Binary.text binary in
  let lo = text.Zelf.Section.vaddr and hi = Zelf.Section.vend text in
  let hits = ref [] in
  List.iter
    (fun (s : Zelf.Section.t) ->
      if not (Zelf.Section.is_code s) && s.Zelf.Section.kind <> Zelf.Section.Bss then
        let data = s.Zelf.Section.data in
        let n = Bytes.length data in
        for i = 0 to n - 4 do
          let v =
            Char.code (Bytes.get data i)
            lor (Char.code (Bytes.get data (i + 1)) lsl 8)
            lor (Char.code (Bytes.get data (i + 2)) lsl 16)
            lor (Char.code (Bytes.get data (i + 3)) lsl 24)
          in
          if v >= lo && v < hi then hits := v :: !hits
        done)
    binary.Zelf.Binary.sections;
  List.sort_uniq compare !hits

(* Address-sized immediates inside an instruction that look like text
   addresses: function-pointer materialization, return-address tricks. *)
let immediate_code_refs ~lo ~hi insn =
  let open Zvm.Insn in
  let candidates =
    match insn with
    | Movi (_, v) | Pushi v | Leaa (_, v) | Cmpi (_, v) -> [ v ]
    | _ -> []
  in
  List.filter (fun v -> v >= lo && v < hi) candidates

(* Jump-table heuristic: starting at the table address, consecutive words
   that are valid text addresses are assumed to be table entries.  This is
   the standard bounded scan; a false positive only adds seeds, which the
   aggregation treats conservatively. *)
let jump_table_entries binary ~lo ~hi table =
  let rec go i acc =
    if i >= 256 then List.rev acc
    else
      match Zelf.Binary.read32 binary (table + (i * 4)) with
      | Some v when v >= lo && v < hi -> go (i + 1) (v :: acc)
      | _ -> List.rev acc
  in
  go 0 []

let traverse binary =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let len = text.Zelf.Section.size in
  let lo = base and hi = base + len in
  let data = text.Zelf.Section.data in
  let cover = Array.make len (-1) in
  let insns = Hashtbl.create 256 in
  let initial_seeds =
    binary.Zelf.Binary.entry :: scan_for_text_addresses binary |> List.sort_uniq compare
  in
  let work = Queue.create () in
  List.iter (fun s -> Queue.add s work) initial_seeds;
  let enqueue a = if a >= lo && a < hi then Queue.add a work in
  while not (Queue.is_empty work) do
    let addr = Queue.pop work in
    if addr >= lo && addr < hi && cover.(addr - base) = -1 then
      match Zvm.Decode.decode_sub data ~pos:(addr - base) ~limit:len with
      | Error _ -> ()
      | Ok ((insn, ilen) as decoded) ->
          (* Claim only if the bytes are not already claimed with a
             different boundary; overlapping claims stay unresolved and
             fall to the aggregation's conservative case. *)
          let clash = ref false in
          for i = addr to addr + ilen - 1 do
            if cover.(i - base) <> -1 then clash := true
          done;
          if not !clash then begin
            Hashtbl.replace insns addr decoded;
            Array.fill cover (addr - base) ilen addr;
            (match Zvm.Insn.static_target ~at:addr insn with
            | Some tgt -> enqueue tgt
            | None -> ());
            if Zvm.Insn.has_fallthrough insn then enqueue (addr + ilen);
            List.iter enqueue (immediate_code_refs ~lo ~hi insn);
            match insn with
            | Zvm.Insn.Jmpt (_, table) ->
                List.iter enqueue (jump_table_entries binary ~lo ~hi table)
            | _ -> ()
          end
  done;
  { base; len; cover; insns; seeds = initial_seeds }

let covering_start t addr =
  if addr < t.base || addr >= t.base + t.len then None
  else
    let c = t.cover.(addr - t.base) in
    if c < 0 then None else Some c

let reached t addr = Option.is_some (covering_start t addr)
