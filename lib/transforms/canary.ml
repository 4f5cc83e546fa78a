module Db = Irdb.Db
module Rng = Zipr_util.Rng
open Zvm

let violation_status = 141

let apply ~seed db =
  let rng = Rng.create seed in
  let violation =
    Db.append_chain db [ Insn.Movi (Reg.R0, violation_status); Insn.Sys 0 ]
  in
  List.iter
    (fun (f : Frame.func) ->
      (* A pinned secondary entry would let an indirect arrival skip the
         cookie push but still run the check before ret. *)
      if Frame.eligible f && not f.Frame.secondary_entry then begin
        let cookie = Int64.to_int (Int64.logand (Rng.bits64 rng) 0x7fffffffL) in
        (* Rets first, entry last: if the entry row is itself a ret
           (single-instruction function), insert_before steals its
           identity, and instrumenting the entry first would land the
           check sequence in front of the cookie push. *)
        List.iter
          (fun (s : Frame.site) ->
            (* push r0; load r0,[sp+4]; cmpi; jne violation; pop r0;
               addi sp,4 (drop canary); <return site> *)
            ignore (Db.insert_before db s.Frame.head (Insn.Push Reg.R0));
            let cur = ref s.Frame.head in
            let add insn = cur := Db.insert_after db !cur insn in
            add (Insn.Load { dst = Reg.R0; base = Reg.SP; disp = 4 });
            add (Insn.Cmpi (Reg.R0, cookie));
            add (Insn.Jcc (Cond.Ne, Insn.Near, 0));
            Db.set_target db !cur (Some violation);
            add (Insn.Pop Reg.R0);
            add (Insn.Alui (Insn.Addi, Reg.SP, 4)))
          f.Frame.sites;
        ignore (Db.insert_before db f.Frame.func.Db.entry (Insn.Pushi cookie))
      end)
    (Frame.analyse db)

let make ~seed () =
  Zipr.Transform.make ~name:"canary"
    ~describe:"per-rewrite randomized stack canaries checked at every return"
    (apply ~seed)

let transform = make ~seed:11 ()
