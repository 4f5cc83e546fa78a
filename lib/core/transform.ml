type t = { name : string; describe : string; apply : Irdb.Db.t -> unit }

let make ~name ~describe apply = { name; describe; apply }

let apply_all ts db = List.iter (fun t -> t.apply db) ts
