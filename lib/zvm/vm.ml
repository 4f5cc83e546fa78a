module Rng = Zipr_util.Rng

type fault =
  | Decode_fault of { pc : int; error : Decode.error }
  | Mem_fault of { pc : int; addr : int }
  | Div_fault of { pc : int }
  | Bad_syscall of { pc : int; number : int }
  | Fuel_exhausted

type stop = Halted | Exited of int | Fault of fault

type result = {
  stop : stop;
  output : string;
  syscalls : int list;
  insns : int;
  cycles : int;
  max_rss_pages : int;
}

type t = {
  memory : Memory.t;
  regs : int array;  (* indexed by Reg.index; 32-bit values *)
  mutable pc : int;
  mutable flag_eq : bool;
  mutable flag_lt : bool;  (* signed less-than of the last compare *)
  mutable flag_ult : bool;  (* unsigned less-than *)
  input : string;
  mutable input_pos : int;
  output : Buffer.t;
  mutable syscalls : int list;  (* newest first *)
  rng : Rng.t;
  mutable alloc_cursor : int;
  mutable insns : int;
  mutable cycles : int;
}

let mask32 v = v land 0xffff_ffff

let sign32 v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let create ?(stack_top = 0xbfff_f000) ?(stack_pages = 64) ?(alloc_base = 0x6000_0000)
    ?(random_seed = 0xC6C) ~mem ~entry ~input () =
  Memory.map mem ~addr:(stack_top - (stack_pages * Memory.page_size)) ~len:(stack_pages * Memory.page_size);
  Memory.reset_residency mem;
  let regs = Array.make 9 0 in
  regs.(Reg.index Reg.SP) <- stack_top;
  {
    memory = mem;
    regs;
    pc = entry;
    flag_eq = false;
    flag_lt = false;
    flag_ult = false;
    input;
    input_pos = 0;
    output = Buffer.create 256;
    syscalls = [];
    rng = Rng.create random_seed;
    alloc_cursor = alloc_base;
    insns = 0;
    cycles = 0;
  }

let reg t r = t.regs.(Reg.index r)
let set_reg t r v = t.regs.(Reg.index r) <- mask32 v
let pc t = t.pc
let mem t = t.memory

let set_flags_cmp t a b =
  t.flag_eq <- a = b;
  t.flag_lt <- sign32 a < sign32 b;
  t.flag_ult <- a < b

let set_flags_result t v =
  t.flag_eq <- v = 0;
  t.flag_lt <- v land 0x8000_0000 <> 0;
  t.flag_ult <- false

exception Stop of stop

let fault _t f = raise (Stop (Fault f))

let read32 t addr =
  match Memory.read32 t.memory addr with
  | Some v -> v
  | None -> fault t (Mem_fault { pc = t.pc; addr })

let write32 t addr v =
  if not (Memory.write32 t.memory addr v) then fault t (Mem_fault { pc = t.pc; addr })

let read8 t addr =
  match Memory.read8 t.memory addr with
  | Some v -> v
  | None -> fault t (Mem_fault { pc = t.pc; addr })

let write8 t addr v =
  if not (Memory.write8 t.memory addr v) then fault t (Mem_fault { pc = t.pc; addr })

let push t v =
  let sp = mask32 (reg t Reg.SP - 4) in
  set_reg t Reg.SP sp;
  write32 t sp v

let pop t =
  let sp = reg t Reg.SP in
  let v = read32 t sp in
  set_reg t Reg.SP (sp + 4);
  v

let do_syscall t n =
  t.cycles <- t.cycles + 30;
  t.syscalls <- n :: t.syscalls;
  match Syscall.of_number n with
  | None -> fault t (Bad_syscall { pc = t.pc; number = n })
  | Some Syscall.Terminate -> raise (Stop (Exited (reg t Reg.R0)))
  | Some Syscall.Transmit ->
      let buf = reg t Reg.R1 and len = reg t Reg.R2 in
      for i = 0 to len - 1 do
        Buffer.add_char t.output (Char.chr (read8 t (buf + i)))
      done;
      set_reg t Reg.R0 len
  | Some Syscall.Receive ->
      let buf = reg t Reg.R1 and len = reg t Reg.R2 in
      let avail = String.length t.input - t.input_pos in
      let n = min len avail in
      for i = 0 to n - 1 do
        write8 t (buf + i) (Char.code t.input.[t.input_pos + i])
      done;
      t.input_pos <- t.input_pos + n;
      set_reg t Reg.R0 n
  | Some Syscall.Allocate ->
      let len = reg t Reg.R0 in
      let pages = max 1 ((len + Memory.page_size - 1) / Memory.page_size) in
      let addr = t.alloc_cursor in
      Memory.map t.memory ~addr ~len:(pages * Memory.page_size);
      t.alloc_cursor <- t.alloc_cursor + (pages * Memory.page_size);
      set_reg t Reg.R0 addr
  | Some Syscall.Deallocate -> set_reg t Reg.R0 0
  | Some Syscall.Random ->
      let buf = reg t Reg.R0 and len = reg t Reg.R1 in
      for i = 0 to len - 1 do
        write8 t (buf + i) (Rng.int t.rng 256)
      done;
      set_reg t Reg.R0 len
  | Some Syscall.Fdwait -> set_reg t Reg.R0 0

let alu_eval t op a b =
  let open Insn in
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | Mul ->
      t.cycles <- t.cycles + 2;
      mask32 (a * b)
  | Div ->
      t.cycles <- t.cycles + 10;
      if b = 0 then fault t (Div_fault { pc = t.pc }) else a / b
  | Mod ->
      t.cycles <- t.cycles + 10;
      if b = 0 then fault t (Div_fault { pc = t.pc }) else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> mask32 (a lsl (b land 31))
  | Shr -> a lsr (b land 31)

let alui_op = function
  | Insn.Addi -> Insn.Add
  | Insn.Subi -> Insn.Sub
  | Insn.Andi -> Insn.And
  | Insn.Ori -> Insn.Or
  | Insn.Xori -> Insn.Xor
  | Insn.Muli -> Insn.Mul

let step t insn next =
  let open Insn in
  let membump () = t.cycles <- t.cycles + 1 in
  let taken target =
    t.cycles <- t.cycles + 1;
    t.pc <- mask32 target
  in
  t.pc <- next;
  match insn with
  | Movi (r, v) -> set_reg t r v
  | Mov (rd, rs) -> set_reg t rd (reg t rs)
  | Load { dst; base; disp } ->
      membump ();
      set_reg t dst (read32 t (mask32 (reg t base + disp)))
  | Store { base; disp; src } ->
      membump ();
      write32 t (mask32 (reg t base + disp)) (reg t src)
  | Load8 { dst; base; disp } ->
      membump ();
      set_reg t dst (read8 t (mask32 (reg t base + disp)))
  | Store8 { base; disp; src } ->
      membump ();
      write8 t (mask32 (reg t base + disp)) (reg t src land 0xff)
  | Alu (op, rd, rs) ->
      let v = alu_eval t op (reg t rd) (reg t rs) in
      set_reg t rd v;
      set_flags_result t v
  | Alui (op, r, imm) ->
      let v = alu_eval t (alui_op op) (reg t r) (mask32 imm) in
      set_reg t r v;
      set_flags_result t v
  | Shli (r, n) ->
      let v = mask32 (reg t r lsl (n land 31)) in
      set_reg t r v;
      set_flags_result t v
  | Shri (r, n) ->
      let v = reg t r lsr (n land 31) in
      set_reg t r v;
      set_flags_result t v
  | Not r ->
      let v = mask32 (lnot (reg t r)) in
      set_reg t r v;
      set_flags_result t v
  | Neg r ->
      let v = mask32 (- reg t r) in
      set_reg t r v;
      set_flags_result t v
  | Cmp (ra, rb) -> set_flags_cmp t (reg t ra) (reg t rb)
  | Cmpi (r, imm) -> set_flags_cmp t (reg t r) (mask32 imm)
  | Test (ra, rb) -> set_flags_result t (reg t ra land reg t rb)
  | Push r ->
      membump ();
      push t (reg t r)
  | Pop r ->
      membump ();
      set_reg t r (pop t)
  | Pushi v ->
      membump ();
      push t (mask32 v)
  | Jcc (c, _, disp) ->
      if Cond.eval c ~eq:t.flag_eq ~lt:t.flag_lt ~ult:t.flag_ult then taken (next + disp)
  | Jmp (_, disp) -> taken (next + disp)
  | Call disp ->
      membump ();
      push t next;
      taken (next + disp)
  | Jmpr r -> taken (reg t r)
  | Callr r ->
      membump ();
      push t next;
      taken (reg t r)
  | Jmpt (r, table) ->
      membump ();
      taken (read32 t (mask32 (table + (reg t r * 4))))
  | Ret ->
      membump ();
      taken (pop t)
  | Halt -> raise (Stop Halted)
  | Nop | Land | Retland -> ()
  | Sys n -> do_syscall t n
  | Leap (r, disp) -> set_reg t r (next + disp)
  | Loadp (r, disp) ->
      membump ();
      set_reg t r (read32 t (mask32 (next + disp)))
  | Storep (disp, r) ->
      membump ();
      write32 t (mask32 (next + disp)) (reg t r)
  | Leaa (r, a) -> set_reg t r a
  | Loada (r, a) ->
      membump ();
      set_reg t r (read32 t a)
  | Storea (a, r) ->
      membump ();
      write32 t a (reg t r)

let run ?(fuel = 20_000_000) ?on_step t =
  let fetch a = Memory.read8 t.memory a in
  let stop =
    try
      while true do
        if t.insns >= fuel then raise (Stop (Fault Fuel_exhausted));
        match Decode.decode ~fetch t.pc with
        | Error error -> raise (Stop (Fault (Decode_fault { pc = t.pc; error })))
        | Ok (insn, len) ->
            (match on_step with Some f -> f ~pc:t.pc insn | None -> ());
            t.insns <- t.insns + 1;
            t.cycles <- t.cycles + 1;
            step t insn (t.pc + len)
      done;
      assert false
    with Stop s -> s
  in
  ({
     stop;
     output = Buffer.contents t.output;
     syscalls = List.rev t.syscalls;
     insns = t.insns;
     cycles = t.cycles;
     max_rss_pages = Memory.touched_pages t.memory;
   }
    : result)

let pp_fault ppf = function
  | Decode_fault { pc; error } ->
      Format.fprintf ppf "decode fault at 0x%x: %a" pc Decode.pp_error error
  | Mem_fault { pc; addr } -> Format.fprintf ppf "memory fault at 0x%x touching 0x%x" pc addr
  | Div_fault { pc } -> Format.fprintf ppf "division by zero at 0x%x" pc
  | Bad_syscall { pc; number } -> Format.fprintf ppf "bad syscall %d at 0x%x" number pc
  | Fuel_exhausted -> Format.fprintf ppf "instruction budget exhausted"

let pp_stop ppf = function
  | Halted -> Format.fprintf ppf "halted"
  | Exited n -> Format.fprintf ppf "exited %d" n
  | Fault f -> Format.fprintf ppf "fault: %a" pp_fault f

let stop_to_string s = Format.asprintf "%a" pp_stop s

let equal_stop (a : stop) (b : stop) = a = b
