module Db = Irdb.Db
open Zvm

let violation_status = 139

let land_byte = Encode.op_land
let retland_byte = Encode.op_retland
let pushi_byte = Encode.op_pushi

(* Maximal contiguous address ranges of fixed rows: legitimate indirect
   destinations that carry no markers. *)
let fixed_ranges_of db =
  let addrs = ref [] in
  Db.iter db (fun r ->
      if r.Db.fixed then
        match r.Db.orig_addr with
        | Some a -> addrs := (a, a + Zvm.Insn.size r.Db.insn) :: !addrs
        | None -> ());
  let sorted = List.sort compare !addrs in
  let rec merge = function
    | (lo1, hi1) :: (lo2, hi2) :: rest when lo2 <= hi1 ->
        merge ((lo1, max hi1 hi2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge sorted

(* Build the shared validation routine.  Sites push nothing (returns) or
   the computed target, then call it, so on entry the checked address sits
   at [sp+4]; after the routine saves r0 it is at [sp+8]:

     push r0
     load r0, [sp+8]
     per fixed range:  cmpi lo; jult skip; cmpi hi; jult ok; skip: ...
     load8 r0, [r0]
     per marker byte:  cmpi b; jeq ok
     jmp violation
     ok: pop r0; ret

   One routine instance serves every protected site of its kind, so the
   per-site cost is a single call — the same engineering that keeps real
   CFI rewriters within the CGC size budget. *)
let build_check_routine db ~violation ~valid_bytes ~fixed_ranges =
  let open Zipr.Routine in
  let range_tests =
    List.concat
      (List.mapi
         (fun i (lo, hi) ->
           [
             insn (Insn.Cmpi (Reg.R0, lo));
             jcc_to Cond.Ult (Printf.sprintf "range_%d_skip" i);
             insn (Insn.Cmpi (Reg.R0, hi));
             jcc_to Cond.Ult "ok";
             label (Printf.sprintf "range_%d_skip" i);
           ])
         fixed_ranges)
  in
  let marker_tests =
    List.concat_map
      (fun byte -> [ insn (Insn.Cmpi (Reg.R0, byte)); jcc_to Cond.Eq "ok" ])
      valid_bytes
  in
  build db
    ([ insn (Insn.Push Reg.R0); insn (Insn.Load { dst = Reg.R0; base = Reg.SP; disp = 8 }) ]
    @ range_tests
    @ [ insn (Insn.Load8 { dst = Reg.R0; base = Reg.R0; disp = 0 }) ]
    @ marker_tests
    @ [ jmp_row violation; label "ok"; insn (Insn.Pop Reg.R0); insn Insn.Ret ])

(* Whether [r] is the guard [apply] puts in front of a [ret]: a call
   whose callee, past the range tests and the [load8], tests the
   [retland] marker alone before jumping to the violation handler. *)
let is_ret_guard db (r : Db.row) =
  let rec walk ~loaded = function
    | None -> false
    | Some id -> (
        match Db.row db id with
        | { Db.insn = Insn.Load8 _; fallthrough; _ } when not loaded -> walk ~loaded:true fallthrough
        | { Db.insn = Insn.Cmpi (Reg.R0, b); fallthrough = Some j; _ } when loaded -> (
            b = retland_byte
            &&
            match Db.row db j with
            | { Db.insn = Insn.Jcc (Cond.Eq, _, _); fallthrough = Some k; _ } -> (
                match (Db.row db k).Db.insn with Insn.Jmp _ -> true | _ -> false)
            | _ -> false)
        | { Db.insn = Insn.Push _ | Insn.Load _ | Insn.Cmpi _ | Insn.Jcc _; fallthrough; _ }
          when not loaded ->
            walk ~loaded fallthrough
        | _ -> false
        | exception Not_found -> false)
  in
  match r.Db.insn with Insn.Call _ -> walk ~loaded:false r.Db.target | _ -> false

let apply db =
  (* Snapshot the program's rows first: the handler and check routines
     built next must not themselves be instrumented (the ret-check ends in
     a ret!), and insertions allocate fresh ids we must not revisit. *)
  let snapshot = Db.ids db in
  (* One violation handler and two shared check routines per binary. *)
  let violation =
    Db.append_chain db [ Insn.Movi (Reg.R0, violation_status); Insn.Sys 0 ]
  in
  let fixed_ranges = fixed_ranges_of db in
  let ret_check =
    build_check_routine db ~violation ~valid_bytes:[ retland_byte ] ~fixed_ranges
  in
  let jmp_check =
    build_check_routine db ~violation ~valid_bytes:[ land_byte; pushi_byte ] ~fixed_ranges
  in
  (* Landing markers at every pinned address. *)
  Db.set_pin_prologue db [ Insn.Land ];
  (* Return-point markers first, so the check pass below does not see the
     inserted rows. *)
  List.iter
    (fun id ->
      match Db.row db id with
      | exception Not_found -> ()
      | r when r.Db.fixed -> ()
      | r -> (
          match r.Db.insn with
          | Insn.Call _ | Insn.Callr _ -> (
              match r.Db.fallthrough with
              | Some _ -> ignore (Db.insert_after db id Insn.Retland)
              | None -> ())
          | _ -> ()))
    snapshot;
  List.iter
    (fun id ->
      match Db.row db id with
      | exception Not_found -> ()
      | r when r.Db.fixed ->
          (* Fixed bytes cannot be instrumented; ambiguous code keeps its
             original (unprotected) behaviour. *)
          ()
      | r -> (
          match r.Db.insn with
          | Insn.Ret ->
              (* call ret_check; ret *)
              ignore (Db.insert_before db id (Insn.Call 0));
              Db.set_target db id (Some ret_check)
          | Insn.Jmpr tgt | Insn.Callr tgt ->
              (* push tgt; call jmp_check; addi sp,4; <transfer> *)
              ignore (Db.insert_before db id (Insn.Push tgt));
              let call = Db.insert_after db id (Insn.Call 0) in
              Db.set_target db call (Some jmp_check);
              ignore (Db.insert_after db call (Insn.Alui (Insn.Addi, Reg.SP, 4)))
          | Insn.Jmpt (idx, table) ->
              (* push r0; compute entry into r0; push r0; call jmp_check;
                 addi sp,4; pop r0; <transfer> *)
              ignore (Db.insert_before db id (Insn.Push Reg.R0));
              let cur = ref id in
              let add insn = cur := Db.insert_after db !cur insn in
              add (Insn.Mov (Reg.R0, idx));
              add (Insn.Shli (Reg.R0, 2));
              add (Insn.Alui (Insn.Addi, Reg.R0, table));
              add (Insn.Load { dst = Reg.R0; base = Reg.R0; disp = 0 });
              add (Insn.Push Reg.R0);
              add (Insn.Call 0);
              Db.set_target db !cur (Some jmp_check);
              add (Insn.Alui (Insn.Addi, Reg.SP, 4));
              add (Insn.Pop Reg.R0)
          | _ -> ()))
    snapshot

let transform =
  Zipr.Transform.make ~name:"cfi"
    ~describe:"landing-pad control-flow integrity for returns and indirect transfers" apply
