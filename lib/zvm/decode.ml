open Insn

type error = Bad_opcode of int | Bad_register of int | Truncated

let pp_error ppf = function
  | Bad_opcode b -> Format.fprintf ppf "bad opcode 0x%02x" b
  | Bad_register b -> Format.fprintf ppf "bad register field 0x%02x" b
  | Truncated -> Format.fprintf ppf "truncated instruction"

let error_to_string e = Format.asprintf "%a" pp_error e

let sign8 v = if v >= 0x80 then v - 0x100 else v

let sign32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* The decoder is written once, in direct style over a byte reader:
   [get src a] is the byte at address [a] of [src], or [-1] if [a] is
   unreadable, and no address at or past [limit] is asked for.  Fields
   are read in address order, each byte once, and reading stops at the
   first field that decides the result — so an instruction reads exactly
   its own bytes, and an error reads up to the byte that caused it.  The
   [mk] constructors passed to the operand-form readers below are closed
   functions, so passing them allocates nothing. *)

let[@inline] byte get src limit a = if a < limit then get src a else -1

(* The little-endian 32-bit field at [a], or [-1] once a byte is
   unreadable. *)
let u32 get src limit a =
  let b0 = byte get src limit a in
  if b0 < 0 then -1
  else
    let b1 = byte get src limit (a + 1) in
    if b1 < 0 then -1
    else
      let b2 = byte get src limit (a + 2) in
      if b2 < 0 then -1
      else
        let b3 = byte get src limit (a + 3) in
        if b3 < 0 then -1 else b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let n_regs = Array.length Reg.all

(* Operand forms, named by the fields after the opcode byte. *)

let imm8 get src limit a mk =
  let v = byte get src limit (a + 1) in
  if v < 0 then Error Truncated else Ok (mk v, 2)

let imm32 get src limit a mk =
  let v = u32 get src limit (a + 1) in
  if v < 0 then Error Truncated else Ok (mk v, 5)

let reg_imm8 get src limit a mk =
  let rb = byte get src limit (a + 1) in
  if rb < 0 then Error Truncated
  else if rb >= n_regs then Error (Bad_register rb)
  else
    let v = byte get src limit (a + 2) in
    if v < 0 then Error Truncated else Ok (mk Reg.all.(rb) v, 3)

let reg_imm32 get src limit a mk =
  let rb = byte get src limit (a + 1) in
  if rb < 0 then Error Truncated
  else if rb >= n_regs then Error (Bad_register rb)
  else
    let v = u32 get src limit (a + 2) in
    if v < 0 then Error Truncated else Ok (mk Reg.all.(rb) v, 6)

(* One register in the high nibble.  The low nibble is reserved-zero;
   rejecting nonzero keeps every decodable byte string canonically
   re-encodable. *)
let one_reg get src limit a mk =
  let rb = byte get src limit (a + 1) in
  if rb < 0 then Error Truncated
  else if rb land 0xf <> 0 then Error (Bad_register rb)
  else if rb lsr 4 >= n_regs then Error (Bad_register (rb lsr 4))
  else Ok (mk Reg.all.(rb lsr 4), 2)

(* Two registers, high nibble first. *)
let two_regs get src limit a mk =
  let rb = byte get src limit (a + 1) in
  if rb < 0 then Error Truncated
  else if rb lsr 4 >= n_regs then Error (Bad_register (rb lsr 4))
  else if rb land 0xf >= n_regs then Error (Bad_register (rb land 0xf))
  else Ok (mk Reg.all.(rb lsr 4) Reg.all.(rb land 0xf), 2)

let two_regs_disp32 get src limit a mk =
  let rb = byte get src limit (a + 1) in
  if rb < 0 then Error Truncated
  else if rb lsr 4 >= n_regs then Error (Bad_register (rb lsr 4))
  else if rb land 0xf >= n_regs then Error (Bad_register (rb land 0xf))
  else
    let v = u32 get src limit (a + 2) in
    if v < 0 then Error Truncated
    else Ok (mk Reg.all.(rb lsr 4) Reg.all.(rb land 0xf) (sign32 v), 6)

let decode_with get src limit a =
  let op = byte get src limit a in
  if op < 0 then Error Truncated
  else
    match op with
    | 0x10 -> reg_imm32 get src limit a (fun r v -> Movi (r, v))
    | 0x11 -> two_regs get src limit a (fun a b -> Mov (a, b))
    | 0x12 -> two_regs_disp32 get src limit a (fun dst base disp -> Load { dst; base; disp })
    | 0x13 -> two_regs_disp32 get src limit a (fun base src disp -> Store { base; disp; src })
    | 0x14 -> two_regs_disp32 get src limit a (fun dst base disp -> Load8 { dst; base; disp })
    | 0x15 -> two_regs_disp32 get src limit a (fun base src disp -> Store8 { base; disp; src })
    | 0x20 -> two_regs get src limit a (fun a b -> Alu (Add, a, b))
    | 0x21 -> two_regs get src limit a (fun a b -> Alu (Sub, a, b))
    | 0x22 -> two_regs get src limit a (fun a b -> Alu (Mul, a, b))
    | 0x23 -> two_regs get src limit a (fun a b -> Alu (Div, a, b))
    | 0x24 -> two_regs get src limit a (fun a b -> Alu (Mod, a, b))
    | 0x25 -> two_regs get src limit a (fun a b -> Alu (And, a, b))
    | 0x26 -> two_regs get src limit a (fun a b -> Alu (Or, a, b))
    | 0x27 -> two_regs get src limit a (fun a b -> Alu (Xor, a, b))
    | 0x28 -> two_regs get src limit a (fun a b -> Alu (Shl, a, b))
    | 0x29 -> two_regs get src limit a (fun a b -> Alu (Shr, a, b))
    | 0x2a -> one_reg get src limit a (fun r -> Not r)
    | 0x2b -> one_reg get src limit a (fun r -> Neg r)
    | 0x30 -> reg_imm32 get src limit a (fun r v -> Alui (Addi, r, v))
    | 0x31 -> reg_imm32 get src limit a (fun r v -> Alui (Subi, r, v))
    | 0x32 -> reg_imm32 get src limit a (fun r v -> Alui (Andi, r, v))
    | 0x33 -> reg_imm32 get src limit a (fun r v -> Alui (Ori, r, v))
    | 0x34 -> reg_imm32 get src limit a (fun r v -> Alui (Xori, r, v))
    | 0x35 -> reg_imm32 get src limit a (fun r v -> Alui (Muli, r, v))
    | 0x36 -> reg_imm8 get src limit a (fun r v -> Shli (r, v))
    | 0x37 -> reg_imm8 get src limit a (fun r v -> Shri (r, v))
    | 0x40 -> two_regs get src limit a (fun a b -> Cmp (a, b))
    | 0x41 -> reg_imm32 get src limit a (fun r v -> Cmpi (r, v))
    | 0x42 -> two_regs get src limit a (fun a b -> Test (a, b))
    | 0x50 -> one_reg get src limit a (fun r -> Push r)
    | 0x51 -> one_reg get src limit a (fun r -> Pop r)
    | _ when op >= 0x58 && op <= 0x5f ->
        let d = u32 get src limit (a + 1) in
        if d < 0 then Error Truncated else Ok (Jcc (Cond.all.(op - 0x58), Near, sign32 d), 5)
    | 0x60 -> imm8 get src limit a (fun n -> Sys n)
    | 0x61 -> Ok (Land, 1)
    | 0x62 -> Ok (Retland, 1)
    | 0x68 -> imm32 get src limit a (fun v -> Pushi v)
    | _ when op >= 0x70 && op <= 0x77 ->
        let d = byte get src limit (a + 1) in
        if d < 0 then Error Truncated else Ok (Jcc (Cond.all.(op - 0x70), Short, sign8 d), 2)
    | 0x90 -> Ok (Nop, 1)
    | 0xa1 -> reg_imm32 get src limit a (fun r d -> Leap (r, sign32 d))
    | 0xa2 -> reg_imm32 get src limit a (fun r d -> Loadp (r, sign32 d))
    | 0xa3 -> reg_imm32 get src limit a (fun r d -> Storep (sign32 d, r))
    | 0xa4 -> reg_imm32 get src limit a (fun r a -> Leaa (r, a))
    | 0xa5 -> reg_imm32 get src limit a (fun r a -> Loada (r, a))
    | 0xa6 -> reg_imm32 get src limit a (fun r a -> Storea (a, r))
    | 0xc3 -> Ok (Ret, 1)
    | 0xe8 -> imm32 get src limit a (fun d -> Call (sign32 d))
    | 0xe9 -> imm32 get src limit a (fun d -> Jmp (Near, sign32 d))
    | 0xeb -> imm8 get src limit a (fun d -> Jmp (Short, sign8 d))
    | 0xf4 -> Ok (Halt, 1)
    | 0xfd -> reg_imm32 get src limit a (fun r t -> Jmpt (r, t))
    | 0xfe -> one_reg get src limit a (fun r -> Callr r)
    | 0xff -> one_reg get src limit a (fun r -> Jmpr r)
    | _ -> Error (Bad_opcode op)

let fetched fetch a = match fetch a with Some b -> b | None -> -1

let decode ~fetch addr = decode_with fetched fetch max_int addr

let buffered b a = Char.code (Bytes.unsafe_get b a)

let decode_sub b ~pos ~limit =
  if limit < 0 || limit > Bytes.length b then invalid_arg "Decode.decode_sub: limit outside the buffer";
  if pos < 0 then Error Truncated else decode_with buffered b limit pos

let decode_bytes b ~pos = decode_sub b ~pos ~limit:(Bytes.length b)

let decode_all b =
  let n = Bytes.length b in
  let rec go pos acc =
    if pos >= n then Ok (List.rev acc)
    else
      match decode_bytes b ~pos with
      | Ok (i, len) -> go (pos + len) (i :: acc)
      | Error e -> Error (pos, e)
  in
  go 0 []
