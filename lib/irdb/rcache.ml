(* A mutex-protected, byte-budgeted LRU over in-memory payloads of any
   type — the storage layer behind the routine-granular IR cache.

   The delta path keeps two instances: routine fragments, stored
   structured and shared by reference (a hit is a hashtable probe), and
   the whole-binary memo, which stores IR snapshot strings (a hit is one
   restore, as for {!Cache}).  Payload type is a parameter; the caller
   supplies a [weigh] function (approximate resident bytes) for the byte
   budget, and optionally a serializer pair to enable a disk layer
   (atomic temp-file + rename, self-keyed framing, same discipline as
   {!Cache}). *)

type 'a disk = {
  dir : string;
  encode : 'a -> string;
  decode : string -> 'a option;
}

type 'a t = {
  name : string;  (* obs counter prefix, e.g. "delta.frag" *)
  capacity : int;
  max_bytes : int option;
  weigh : 'a -> int;
  disk : 'a disk option;
  lock : Mutex.t;
  entries : (string, 'a) Hashtbl.t;
  last_use : (string, int) Hashtbl.t;
  mutable tick : int;
  mutable resident : int;
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int;
  mutable stores : int;
}

let version = "ZIRRC1"

let create ?(capacity = 4096) ?max_bytes ?disk ~name ~weigh () =
  (match disk with
  | Some d -> (
      try Unix.mkdir d.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ());
  {
    name;
    capacity = max 1 capacity;
    max_bytes = Option.map (max 1) max_bytes;
    weigh;
    disk;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    last_use = Hashtbl.create 256;
    tick = 0;
    resident = 0;
    hits = 0;
    misses = 0;
    evicted = 0;
    stores = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t k =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_use k t.tick

let entry_bytes t k v = String.length k + t.weigh v

let evict_one t =
  let age k = Option.value (Hashtbl.find_opt t.last_use k) ~default:0 in
  let victim =
    Hashtbl.fold
      (fun k _ acc -> match acc with Some k' when age k' <= age k -> acc | _ -> Some k)
      t.entries None
  in
  match victim with
  | Some k ->
      (match Hashtbl.find_opt t.entries k with
      | Some v -> t.resident <- t.resident - entry_bytes t k v
      | None -> ());
      Hashtbl.remove t.entries k;
      Hashtbl.remove t.last_use k;
      t.evicted <- t.evicted + 1;
      Obs.count (t.name ^ ".evictions") 1
  | None ->
      Hashtbl.reset t.entries;
      t.resident <- 0

let insert t k v =
  (match Hashtbl.find_opt t.entries k with
  | Some old ->
      t.resident <- t.resident - entry_bytes t k old;
      Hashtbl.remove t.entries k;
      Hashtbl.remove t.last_use k
  | None -> ());
  let sz = entry_bytes t k v in
  match t.max_bytes with
  | Some budget when sz > budget -> Obs.count (t.name ^ ".oversize_skips") 1
  | _ ->
      let over_budget () =
        match t.max_bytes with Some budget -> t.resident + sz > budget | None -> false
      in
      while
        Hashtbl.length t.entries > 0
        && (Hashtbl.length t.entries >= t.capacity || over_budget ())
      do
        evict_one t
      done;
      Hashtbl.replace t.entries k v;
      t.resident <- t.resident + sz;
      touch t k;
      Obs.gauge_max (t.name ^ ".resident_bytes") t.resident

(* -- disk layer (optional; structured payloads go through the caller's
   codec, framed and written atomically exactly like {!Cache}) -- *)

let entry_path dir k = Filename.concat dir (k ^ ".zirr")

let frame k payload = version ^ " " ^ k ^ "\n" ^ payload

let unframe k s =
  let header = version ^ " " ^ k ^ "\n" in
  let hl = String.length header in
  if String.length s >= hl && String.sub s 0 hl = header then
    Some (String.sub s hl (String.length s - hl))
  else None

let read_file p =
  match open_in_bin p with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with Sys_error _ | End_of_file -> None)

let disk_find t k =
  match t.disk with
  | None -> None
  | Some d ->
      Option.bind (read_file (entry_path d.dir k)) (fun s ->
          Option.bind (unframe k s) d.decode)

let disk_store t k v =
  match t.disk with
  | None -> ()
  | Some d -> (
      let tmp =
        Filename.concat d.dir (Printf.sprintf ".tmp.%s.%d" k (Domain.self () :> int))
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (frame k (d.encode v)));
        Sys.rename tmp (entry_path d.dir k)
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* -- lookup / store -- *)

let find t k =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries k with
      | Some v ->
          touch t k;
          t.hits <- t.hits + 1;
          Some v
      | None -> (
          match disk_find t k with
          | Some v ->
              insert t k v;
              t.hits <- t.hits + 1;
              Some v
          | None ->
              t.misses <- t.misses + 1;
              None))

let store t ~key:k v =
  with_lock t (fun () ->
      t.stores <- t.stores + 1;
      insert t k v;
      disk_store t k v)

let mem_entries t = with_lock t (fun () -> Hashtbl.length t.entries)
let resident_bytes t = with_lock t (fun () -> t.resident)
let evictions t = with_lock t (fun () -> t.evicted)
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)
let stores t = with_lock t (fun () -> t.stores)
