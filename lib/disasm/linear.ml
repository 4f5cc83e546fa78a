type t = {
  base : int;
  len : int;
  cover : int array;
  insns : (int, Zvm.Insn.t * int) Hashtbl.t;
}

let sweep binary =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let len = text.Zelf.Section.size in
  let data = text.Zelf.Section.data in
  let cover = Array.make len (-1) in
  let insns = Hashtbl.create 256 in
  let off = ref 0 in
  while !off < len do
    match Zvm.Decode.decode_sub data ~pos:!off ~limit:len with
    | Ok ((_, ilen) as decoded) ->
        Hashtbl.replace insns (base + !off) decoded;
        Array.fill cover !off ilen (base + !off);
        off := !off + ilen
    | Error _ ->
        (* Data byte (or an instruction spilling off the section). *)
        incr off
  done;
  { base; len; cover; insns }

let covering_start t addr =
  if addr < t.base || addr >= t.base + t.len then None
  else
    let c = t.cover.(addr - t.base) in
    if c < 0 then None else Some c

let is_data t addr =
  addr >= t.base && addr < t.base + t.len && t.cover.(addr - t.base) < 0
