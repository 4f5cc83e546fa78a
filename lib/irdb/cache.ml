(* The content-addressed IR snapshot store: a mutex-protected LRU bounded
   by entry count and resident bytes, with an optional on-disk layer. *)

type disk = { dir : string; max_entries : int option; max_bytes : int option }

(* An entry, linked into the recency list by its two mutable fields:
   [older] toward the least recently used end.  The list is circular
   through a sentinel, the only node whose [value] is [None]. *)
type node = {
  key : string;
  value : string option;
  bytes : int;  (* what the entry charges against the byte budget *)
  mutable older : node;
  mutable newer : node;
}

type t = {
  capacity : int;
  max_bytes : int option;
  disk : disk option;
  lock : Mutex.t;
  entries : (string, node) Hashtbl.t;
  lru : node;  (* sentinel: [lru.older] is the victim, [lru.newer] the newest *)
  mutable resident : int;  (* sum of [bytes] over [entries] *)
  mutable evicted : int;
  mutable oversize : int;
  mutable disk_evicted : int;
}

let create ?(capacity = 64) ?max_bytes ?dir ?max_disk_entries ?max_disk_bytes () =
  let bounded = Option.map (max 1) in
  let disk =
    Option.map
      (fun dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        { dir; max_entries = bounded max_disk_entries; max_bytes = bounded max_disk_bytes })
      dir
  in
  let rec lru = { key = ""; value = None; bytes = 0; older = lru; newer = lru } in
  {
    capacity = max 1 capacity;
    max_bytes = bounded max_bytes;
    disk;
    lock = Mutex.create ();
    entries = Hashtbl.create 256;
    lru;
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

let unlink n =
  n.older.newer <- n.newer;
  n.newer.older <- n.older

(* Make [n] the newest entry.  Relinking allocates nothing, so a memory
   hit costs a hashtable probe and six pointer writes. *)
let push_newest t n =
  n.older <- t.lru;
  n.newer <- t.lru.newer;
  t.lru.newer.older <- n;
  t.lru.newer <- n

let remove t n =
  unlink n;
  Hashtbl.remove t.entries n.key;
  t.resident <- t.resident - n.bytes

(* Insert under both bounds: at most [capacity] entries and, when a byte
   budget is set, at most [max_bytes] resident bytes.  Eviction is
   strictly least-recently-used for both triggers and takes the oldest
   node in constant time.  A payload that alone exceeds the budget is
   not admitted at all (evicting the whole cache for one entry that
   still would not fit buys nothing). *)
let insert t k v =
  Option.iter (remove t) (Hashtbl.find_opt t.entries k);
  let bytes = String.length k + String.length v in
  match t.max_bytes with
  | Some budget when bytes > budget ->
      t.oversize <- t.oversize + 1;
      Obs.count "irdb.cache.oversize_skips" 1
  | _ ->
      let over_budget () =
        match t.max_bytes with Some budget -> t.resident + bytes > budget | None -> false
      in
      while
        Hashtbl.length t.entries > 0
        && (Hashtbl.length t.entries >= t.capacity || over_budget ())
      do
        remove t t.lru.older;
        t.evicted <- t.evicted + 1;
        Obs.count "irdb.cache.evictions" 1
      done;
      let rec n = { key = k; value = Some v; bytes; older = n; newer = n } in
      push_newest t n;
      Hashtbl.replace t.entries k n;
      t.resident <- t.resident + bytes;
      Obs.gauge_max "irdb.cache.resident_bytes" t.resident

(* -- disk layer -- *)

(* An entry file holds the header, then the payload; embedding the key
   makes a renamed, truncated or corrupted file read back as a miss,
   never as a wrong payload. *)
let header k = "ZIRCACHE1 " ^ k ^ "\n"
let path d k = Filename.concat d.dir (k ^ ".zirc")

let disk_find t k =
  match t.disk with
  | None -> None
  | Some d -> (
      match In_channel.with_open_bin (path d k) In_channel.input_all with
      | exception Sys_error _ -> None
      | s ->
          let h = header k in
          let hl = String.length h in
          if String.starts_with ~prefix:h s then
            Some (String.sub s hl (String.length s - hl))
          else None)

(* Write-to-temp + rename keeps concurrent readers (and workers on other
   domains writing the same key) from ever observing a partial entry;
   the domain id keeps temp names from colliding. *)
let disk_write t k v =
  match t.disk with
  | None -> ()
  | Some d -> (
      let tmp =
        Filename.concat d.dir (Printf.sprintf ".tmp.%s.%d" k (Domain.self () :> int))
      in
      try
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc (header k);
            output_string oc v);
        Sys.rename tmp (path d k)
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* Every [<key>.zir<letter>] file counts against the bound, including
   the [.zirr] routine fragments an older release wrote into the same
   directory, so such a directory still shrinks to its bound. *)
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
  | None | Some { max_entries = None; max_bytes = None; _ } -> ()
  | Some d -> (
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
              Obs.count "irdb.cache.disk_evictions" 1
            end)
          files
      with Sys_error _ -> ())

(* -- lookup / store -- *)

let find t k =
  Obs.count "irdb.cache.lookups" 1;
  with_lock t (fun () ->
      match Hashtbl.find t.entries k with
      | n ->
          unlink n;
          push_newest t n;
          Obs.count "irdb.cache.mem_hits" 1;
          n.value
      | exception Not_found -> (
          match disk_find t k with
          | Some v ->
              insert t k v;
              Obs.count "irdb.cache.disk_hits" 1;
              Some v
          | None ->
              Obs.count "irdb.cache.misses" 1;
              None))

let store t ~key v =
  Obs.count "irdb.cache.stores" 1;
  with_lock t (fun () ->
      insert t key v;
      disk_write t key v;
      prune t)

let mem_entries t = with_lock t (fun () -> Hashtbl.length t.entries)
let resident_bytes t = with_lock t (fun () -> t.resident)
let evictions t = with_lock t (fun () -> t.evicted)
let oversize_skips t = with_lock t (fun () -> t.oversize)
let disk_evictions t = with_lock t (fun () -> t.disk_evicted)
