(* The snapshot cache: {!Rcache}'s string instance, with its counter
   prefix, weight and on-disk format fixed. *)

type t = string Rcache.t

let codec =
  { Rcache.magic = "ZIRCACHE1"; ext = ".zirc"; encode = Fun.id; decode = Option.some }

let create ?(capacity = 64) ?max_bytes ?dir ?max_disk_entries ?max_disk_bytes () =
  let disk =
    Option.map
      (fun dir ->
        ( { Rcache.dir; max_entries = max_disk_entries; max_bytes = max_disk_bytes },
          codec ))
      dir
  in
  Rcache.create ~capacity ?max_bytes ?disk ~name:"irdb.cache" ~weigh:String.length ()

let key = Rcache.key
let find = Rcache.find
let store = Rcache.store
let mem_entries = Rcache.mem_entries
let resident_bytes = Rcache.resident_bytes
let evictions = Rcache.evictions
let oversize_skips = Rcache.oversize_skips
let disk_evictions = Rcache.disk_evictions
