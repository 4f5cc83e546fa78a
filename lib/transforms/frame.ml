module Db = Irdb.Db
open Zvm

type site = { head : Db.insn_id; ret : Db.insn_id }

type func = {
  func : Db.func;
  members : Db.insn_id list;
  sites : site list;
  entry_fixed : bool;
  loop_head : bool;
  fallthrough_target : bool;
  escapes : bool;
  secondary_entry : bool;
}

(* Whether a link out of a member of [fid] lands outside the function. *)
let leaves db fid = function
  | None -> false
  | Some t -> (
      match Db.row db t with
      | exception Not_found -> true
      | tr -> ( match tr.Db.func with Some g -> g <> fid | None -> true))

let analyse db =
  let funcs = Db.funcs db in
  let n = List.fold_left (fun acc (f : Db.func) -> max acc (f.Db.fid + 1)) 0 funcs in
  let entry = Array.make n (-1) in
  let entries = Hashtbl.create (2 * n) in
  List.iter
    (fun (f : Db.func) ->
      entry.(f.Db.fid) <- f.Db.entry;
      Hashtbl.replace entries f.Db.entry ())
    funcs;
  let members = Array.make n [] and rets = Array.make n [] in
  let loop_head = Array.make n false and escapes = Array.make n false in
  let secondary = Array.make n false in
  let fallthrough_targets = Hashtbl.create (2 * n) in
  let call_returns = Hashtbl.create 64 in
  let guards = Hashtbl.create 64 in
  let pinned = ref [] in
  Db.iter db (fun r ->
      let is_call = match r.Db.insn with Insn.Call _ | Insn.Callr _ -> true | _ -> false in
      (match r.Db.fallthrough with
      | Some t ->
          if Hashtbl.mem entries t then Hashtbl.replace fallthrough_targets t ();
          if is_call then begin
            Hashtbl.replace call_returns t ();
            match Db.row db t with
            | { Db.insn = Insn.Ret; _ } when Cfi.is_ret_guard db r ->
                Hashtbl.replace guards t r.Db.id
            | _ | (exception Not_found) -> ()
          end
      | None -> ());
      match r.Db.func with
      | Some fid when fid < n ->
          let id = r.Db.id in
          members.(fid) <- id :: members.(fid);
          (match r.Db.insn with
          | Insn.Ret when not r.Db.fixed -> rets.(fid) <- id :: rets.(fid)
          | _ -> ());
          (match r.Db.target with Some t when t = entry.(fid) -> loop_head.(fid) <- true | _ -> ());
          if leaves db fid r.Db.fallthrough || ((not is_call) && leaves db fid r.Db.target) then
            escapes.(fid) <- true;
          if r.Db.pinned <> None && id <> entry.(fid) then pinned := (fid, id) :: !pinned
      | _ -> ());
  List.iter
    (fun (fid, id) -> if not (Hashtbl.mem call_returns id) then secondary.(fid) <- true)
    !pinned;
  List.filter_map
    (fun (f : Db.func) ->
      match Db.row db f.Db.entry with
      | exception Not_found -> None
      | e ->
          let fid = f.Db.fid in
          Some
            {
              func = f;
              members = List.rev members.(fid);
              sites =
                List.rev_map
                  (fun ret ->
                    { head = Option.value (Hashtbl.find_opt guards ret) ~default:ret; ret })
                  rets.(fid);
              entry_fixed = e.Db.fixed;
              loop_head = loop_head.(fid);
              fallthrough_target = Hashtbl.mem fallthrough_targets f.Db.entry;
              escapes = escapes.(fid);
              secondary_entry = secondary.(fid);
            })
    funcs

let eligible f =
  (not f.entry_fixed) && (not f.loop_head) && (not f.fallthrough_target) && (not f.escapes)
  && f.sites <> []
