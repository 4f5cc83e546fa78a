module Db = Irdb.Db
open Zvm

let violation_status = 142

let apply ~region_bytes db =
  let protected = List.filter Frame.eligible (Frame.analyse db) in
  (* Shadow region (bss: no file bytes) and cursor cell (data). *)
  let region_base = Db.next_free_vaddr db in
  Db.add_section db
    (Zelf.Section.make_bss ~name:".zshadow" ~vaddr:region_base ~size:region_bytes);
  let cursor_base = Db.next_free_vaddr db in
  let cursor_cell = Bytes.create 4 in
  Bytes.set cursor_cell 0 (Char.chr (region_base land 0xff));
  Bytes.set cursor_cell 1 (Char.chr ((region_base lsr 8) land 0xff));
  Bytes.set cursor_cell 2 (Char.chr ((region_base lsr 16) land 0xff));
  Bytes.set cursor_cell 3 (Char.chr ((region_base lsr 24) land 0xff));
  Db.add_section db
    (Zelf.Section.make ~name:".zshadow_cursor" ~kind:Zelf.Section.Data ~vaddr:cursor_base
       cursor_cell);
  let cursor = cursor_base in
  let violation =
    Db.append_chain db [ Insn.Movi (Reg.R0, violation_status); Insn.Sys 0 ]
  in
  (* Shared routines.  Called with the protected function's return address
     at [sp+4]; after saving r0 and r1 it sits at [sp+12]. *)
  let shadow_push =
    Zipr.Routine.(
      build db
        [
          insn (Insn.Push Reg.R0);
          insn (Insn.Push Reg.R1);
          insn (Insn.Loada (Reg.R0, cursor));
          insn (Insn.Load { dst = Reg.R1; base = Reg.SP; disp = 12 });
          insn (Insn.Store { base = Reg.R0; disp = 0; src = Reg.R1 });
          insn (Insn.Alui (Insn.Addi, Reg.R0, 4));
          insn (Insn.Storea (cursor, Reg.R0));
          insn (Insn.Pop Reg.R1);
          insn (Insn.Pop Reg.R0);
          insn Insn.Ret;
        ])
  in
  let shadow_check =
    Zipr.Routine.(
      build db
        [
          insn (Insn.Push Reg.R0);
          insn (Insn.Push Reg.R1);
          insn (Insn.Loada (Reg.R0, cursor));
          insn (Insn.Alui (Insn.Subi, Reg.R0, 4));
          insn (Insn.Storea (cursor, Reg.R0));
          insn (Insn.Load { dst = Reg.R1; base = Reg.R0; disp = 0 });
          insn (Insn.Load { dst = Reg.R0; base = Reg.SP; disp = 12 });
          insn (Insn.Cmp (Reg.R0, Reg.R1));
          jcc_row Cond.Ne violation;
          insn (Insn.Pop Reg.R1);
          insn (Insn.Pop Reg.R0);
          insn Insn.Ret;
        ])
  in
  List.iter
    (fun (f : Frame.func) ->
      ignore (Db.insert_before db f.Frame.func.Db.entry (Insn.Call 0));
      Db.set_target db f.Frame.func.Db.entry (Some shadow_push))
    protected;
  (* Then every return, in ascending id order.  An entry that is itself
     a ret (a single-instruction function) now holds the push call. *)
  List.concat_map
    (fun (f : Frame.func) ->
      List.filter_map
        (fun (s : Frame.site) -> if s.Frame.ret <> f.Frame.func.Db.entry then Some s.Frame.ret else None)
        f.Frame.sites)
    protected
  |> List.sort Int.compare
  |> List.iter (fun id ->
         ignore (Db.insert_before db id (Insn.Call 0));
         Db.set_target db id (Some shadow_check))

let make ?(region_bytes = 16384) () =
  Zipr.Transform.make ~name:"shadow-stack"
    ~describe:"exact return-address verification through a shadow region"
    (apply ~region_bytes)

let transform = make ()
