module Db = Irdb.Db
module Rng = Zipr_util.Rng
open Zvm

(* Pads every function {!Frame.eligible} admits: the entry adjustment
   then runs once per activation and every exit path is matched. *)
let apply ~min_pad ~max_pad ~seed db =
  let rng = Rng.create seed in
  List.iter
    (fun (f : Frame.func) ->
      if Frame.eligible f then begin
        let pad = Rng.int_in rng (min_pad / 4) (max_pad / 4) * 4 in
        ignore (Db.insert_before db f.Frame.func.Db.entry (Insn.Alui (Insn.Subi, Reg.SP, pad)));
        List.iter
          (fun (s : Frame.site) ->
            ignore (Db.insert_before db s.Frame.head (Insn.Alui (Insn.Addi, Reg.SP, pad))))
          f.Frame.sites
      end)
    (Frame.analyse db)

let make ?(min_pad = 16) ?(max_pad = 64) ~seed () =
  Zipr.Transform.make ~name:"stack-pad"
    ~describe:"random per-function pad between return address and locals"
    (apply ~min_pad ~max_pad ~seed)

let transform = make ~seed:7 ()
