(* The one LRU-plus-disk store behind every IR cache.

   {!Cache} is its string instance (IR snapshots); the delta path keeps
   two more: routine fragments, stored structured and shared by
   reference (a hit is a hashtable probe), and the whole-binary memo of
   snapshot strings.  The payload type is a parameter; the caller
   supplies [weigh] (approximate resident bytes) for the byte budget,
   and optionally a directory plus a codec for the disk layer. *)

type disk = { dir : string; max_entries : int option; max_bytes : int option }

type 'a codec = {
  magic : string;
  ext : string;
  encode : 'a -> string;
  decode : string -> 'a option;
}

(* Counter names, built once: [Obs.count] wants a precomputed name so
   the disabled path allocates nothing. *)
type names = {
  lookups : string;
  mem_hits : string;
  disk_hits : string;
  misses : string;
  stores : string;
  evictions : string;
  oversize_skips : string;
  resident_bytes : string;
  disk_evictions : string;
}

let names prefix =
  let n s = prefix ^ "." ^ s in
  {
    lookups = n "lookups";
    mem_hits = n "mem_hits";
    disk_hits = n "disk_hits";
    misses = n "misses";
    stores = n "stores";
    evictions = n "evictions";
    oversize_skips = n "oversize_skips";
    resident_bytes = n "resident_bytes";
    disk_evictions = n "disk_evictions";
  }

type 'a t = {
  names : names;
  capacity : int;
  max_bytes : int option;
  weigh : 'a -> int;
  disk : (disk * 'a codec) option;
  lock : Mutex.t;
  entries : (string, 'a) Hashtbl.t;
  last_use : (string, int) Hashtbl.t;
  mutable tick : int;
  mutable resident : int;  (* sum of entry_bytes over [entries] *)
  mutable evicted : int;
  mutable oversize : int;
  mutable disk_evicted : int;
}

let create ?(capacity = 4096) ?max_bytes ?disk ~name ~weigh () =
  let bounded = Option.map (max 1) in
  let disk =
    Option.map
      (fun (d, codec) ->
        (try Unix.mkdir d.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let max_entries = bounded d.max_entries and max_bytes = bounded d.max_bytes in
        ({ d with max_entries; max_bytes }, codec))
      disk
  in
  {
    names = names name;
    capacity = max 1 capacity;
    max_bytes = bounded max_bytes;
    weigh;
    disk;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    last_use = Hashtbl.create 256;
    tick = 0;
    resident = 0;
    evicted = 0;
    oversize = 0;
    disk_evicted = 0;
  }

(* Length-prefix every part so ["ab"; "c"] and ["a"; "bc"] hash apart. *)
let key parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int (String.length p));
      Buffer.add_char buf ':';
      Buffer.add_string buf p)
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t k =
  t.tick <- t.tick + 1;
  Hashtbl.replace t.last_use k t.tick

(* What an entry charges against the byte budget: its key and payload. *)
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
      Obs.count t.names.evictions 1
  | None ->
      Hashtbl.reset t.entries;
      t.resident <- 0

(* Insert under both bounds: at most [capacity] entries and, when a byte
   budget is set, at most [max_bytes] resident bytes.  Eviction is
   strictly least-recently-used for both triggers.  A payload that alone
   exceeds the budget is not admitted at all (evicting the whole cache
   for one entry that still would not fit buys nothing). *)
let insert t k v =
  (match Hashtbl.find_opt t.entries k with
  | Some old ->
      t.resident <- t.resident - entry_bytes t k old;
      Hashtbl.remove t.entries k;
      Hashtbl.remove t.last_use k
  | None -> ());
  let sz = entry_bytes t k v in
  match t.max_bytes with
  | Some budget when sz > budget ->
      t.oversize <- t.oversize + 1;
      Obs.count t.names.oversize_skips 1
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
      Obs.gauge_max t.names.resident_bytes t.resident

(* -- disk layer -- *)

let header codec k = codec.magic ^ " " ^ k ^ "\n"
let path (d, codec) k = Filename.concat d.dir (k ^ codec.ext)

let disk_find t k =
  match t.disk with
  | None -> None
  | Some ((_, codec) as disk) -> (
      match In_channel.with_open_bin (path disk k) In_channel.input_all with
      | exception Sys_error _ -> None
      | s ->
          let h = header codec k in
          let hl = String.length h in
          if String.starts_with ~prefix:h s then
            codec.decode (String.sub s hl (String.length s - hl))
          else None)

(* Write-to-temp + rename keeps concurrent readers (and workers on other
   domains writing the same key) from ever observing a partial entry;
   the domain id keeps temp names from colliding. *)
let disk_write t k v =
  match t.disk with
  | None -> ()
  | Some ((d, codec) as disk) -> (
      let tmp =
        Filename.concat d.dir (Printf.sprintf ".tmp.%s.%d" k (Domain.self () :> int))
      in
      try
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc (header codec k);
            output_string oc (codec.encode v));
        Sys.rename tmp (path disk k)
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let is_entry f =
  let e = Filename.extension f in
  String.length e = 5 && String.starts_with ~prefix:".zir" e

(* Bound the directory after a write.  The scan is O(entry files), and —
   unlike an in-memory shadow count — stays correct when other instances
   or processes write the same directory.  Oldest mtime goes first: a
   coarse LRU (reads do not touch files), but eviction order only
   affects future hit rates, never correctness. *)
let prune t =
  match t.disk with
  | None | Some ({ max_entries = None; max_bytes = None; _ }, _) -> ()
  | Some (d, _) -> (
      try
        let files =
          Sys.readdir d.dir |> Array.to_list |> List.filter is_entry
          |> List.filter_map (fun f ->
                 let p = Filename.concat d.dir f in
                 match Unix.stat p with
                 | { Unix.st_mtime; st_size; _ } -> Some (st_mtime, st_size, p)
                 | exception Unix.Unix_error _ -> None)
          |> List.sort compare
        in
        let count = ref (List.length files) in
        let bytes = ref (List.fold_left (fun a (_, sz, _) -> a + sz) 0 files) in
        let over () =
          (match d.max_entries with Some n -> !count > n | None -> false)
          || match d.max_bytes with Some b -> !bytes > b | None -> false
        in
        List.iter
          (fun (_, sz, p) ->
            if over () then begin
              (try Sys.remove p with Sys_error _ -> ());
              decr count;
              bytes := !bytes - sz;
              t.disk_evicted <- t.disk_evicted + 1;
              Obs.count t.names.disk_evictions 1
            end)
          files
      with Sys_error _ -> ())

(* -- lookup / store -- *)

let find t k =
  Obs.count t.names.lookups 1;
  with_lock t (fun () ->
      match Hashtbl.find_opt t.entries k with
      | Some v ->
          touch t k;
          Obs.count t.names.mem_hits 1;
          Some v
      | None -> (
          match disk_find t k with
          | Some v ->
              insert t k v;
              Obs.count t.names.disk_hits 1;
              Some v
          | None ->
              Obs.count t.names.misses 1;
              None))

let store_all t = function
  | [] -> ()
  | kvs ->
      Obs.count t.names.stores (List.length kvs);
      with_lock t (fun () ->
          List.iter
            (fun (k, v) ->
              insert t k v;
              disk_write t k v)
            kvs;
          prune t)

let store t ~key v = store_all t [ (key, v) ]

let mem_entries t = with_lock t (fun () -> Hashtbl.length t.entries)
let resident_bytes t = with_lock t (fun () -> t.resident)
let evictions t = with_lock t (fun () -> t.evicted)
let oversize_skips t = with_lock t (fun () -> t.oversize)
let disk_evictions t = with_lock t (fun () -> t.disk_evicted)
