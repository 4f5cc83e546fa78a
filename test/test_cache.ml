(* Tests for the IR-cache stack: the exact IRDB codec, IR snapshot /
   restore, the content-addressed store (memory LRU + disk layer), and
   cache-served pipeline/corpus rewrites (counted, byte-identical). *)

module Cache = Irdb.Cache
module Db = Irdb.Db
module Ir = Zipr.Ir_construction
module Corpus = Parallel.Corpus

let transforms = [ Transforms.Null.transform ]

let named_binaries () =
  [
    ("fib", fst (Testprogs.assemble (Testprogs.fib_program ())));
    ("dispatch", fst (Testprogs.assemble (Testprogs.dispatch_program ())));
    ("island", fst (Testprogs.island_binary ()));
    ("dense-pins", fst (Testprogs.assemble (Testprogs.dense_pins_program ())));
  ]

(* -- the snapshot's binary row records -- *)

let row_records ~boundaries db =
  let buf = Zipr_util.Bytebuf.create () in
  Irdb.Dump.add_rows ~boundaries buf db;
  Zipr_util.Bytebuf.to_string buf

let test_exact_dump_roundtrip () =
  List.iter
    (fun (name, binary) ->
      let ir = Ir.build binary in
      let boundaries = ir.Ir.aggregate.Disasm.Aggregate.insn_at in
      let records = row_records ~boundaries in
      let payload = records ir.Ir.db in
      let r = Irdb.Dump.reader payload in
      let db2 = Irdb.Dump.read_rows ~boundaries ~orig:binary r in
      Alcotest.(check bool) (name ^ ": every byte read") true (Irdb.Dump.at_end r);
      Alcotest.(check (list string)) (name ^ ": restored db validates") [] (Db.validate db2);
      Alcotest.(check string) (name ^ ": same rows, pins and functions")
        (Irdb.Dump.to_string ir.Ir.db) (Irdb.Dump.to_string db2);
      Alcotest.(check (list int)) (name ^ ": same marked pins") (Db.marked_pins ir.Ir.db)
        (Db.marked_pins db2);
      Alcotest.(check string) (name ^ ": codec is a fixed point") payload (records db2))
    (named_binaries ())

(* A row holding its boundary's value is written without its
   instruction; one whose instruction differs (replaced, as a rewrite
   would) keeps its bytes and reads back as itself.  Bit 6 needs an
   address with a boundary, and no bit above it exists. *)
let test_boundary_rows () =
  let binary = fst (Testprogs.assemble (Testprogs.fib_program ())) in
  let ir = Ir.build binary in
  let agg = ir.Ir.aggregate in
  let boundaries = agg.Disasm.Aggregate.insn_at in
  let rows = row_records ~boundaries ir.Ir.db in
  let id = Db.entry ir.Ir.db in
  let insn = (Db.row ir.Ir.db id).Db.insn in
  Db.replace ir.Ir.db id (if insn = Zvm.Insn.Nop then Zvm.Insn.Ret else Zvm.Insn.Nop);
  let edited = row_records ~boundaries ir.Ir.db in
  Alcotest.(check bool) "the edited row carries its bytes" true
    (String.length edited > String.length rows);
  let db2 = Irdb.Dump.read_rows ~boundaries ~orig:binary (Irdb.Dump.reader edited) in
  Alcotest.(check string) "the edited row reads back as itself" (Irdb.Dump.to_string ir.Ir.db)
    (Irdb.Dump.to_string db2);
  (* One-row sections after the snapshot's other parts: no entry, one
     record (a flags byte and its fields), no functions, no marks. *)
  let snap = Ir.snapshot (Ir.build binary) in
  let prefix = String.sub snap 0 (String.length snap - String.length rows) in
  let restore flags fields =
    let buf = Zipr_util.Bytebuf.create () in
    Zipr_util.Bytebuf.u8 buf 0;
    Irdb.Dump.add_uint buf 1;
    Zipr_util.Bytebuf.u8 buf flags;
    List.iter (Irdb.Dump.add_uint buf) (fields @ [ 0; 0 ]);
    Ir.restore binary (prefix ^ Zipr_util.Bytebuf.to_string buf)
  in
  let at = List.hd (Disasm.Aggregate.code_starts agg) in
  let text_end = agg.Disasm.Aggregate.base + agg.Disasm.Aggregate.len in
  Alcotest.(check bool) "a boundary row at a boundary" true (Result.is_ok (restore 80 [ at ]));
  Alcotest.(check bool) "no address" true (Result.is_error (restore 64 []));
  Alcotest.(check bool) "no boundary there" true (Result.is_error (restore 80 [ text_end ]));
  Alcotest.(check bool) "flag 128" true (Result.is_error (restore (128 + 80) [ at ]))

(* -- IR snapshot / restore -- *)

let test_snapshot_roundtrip () =
  List.iter
    (fun (name, binary) ->
      let ir = Ir.build binary in
      let snap = Ir.snapshot ir in
      match Ir.restore binary snap with
      | Error e -> Alcotest.failf "%s: restore: %s" name e
      | Ok ir2 ->
          Alcotest.(check string) (name ^ ": snapshot fixed point") snap (Ir.snapshot ir2);
          Alcotest.(check (list string)) (name ^ ": restored db validates") []
            (Db.validate ir2.Ir.db);
          Alcotest.(check bool) (name ^ ": fixed ranges") true
            (ir2.Ir.fixed_ranges = ir.Ir.fixed_ranges);
          Alcotest.(check bool) (name ^ ": data ranges") true
            (ir2.Ir.data_ranges = ir.Ir.data_ranges);
          Alcotest.(check bool) (name ^ ": warnings") true (ir2.Ir.warnings = ir.Ir.warnings);
          Alcotest.(check bool) (name ^ ": pins") true
            (Db.pinned_addresses ir2.Ir.db = Db.pinned_addresses ir.Ir.db))
    (named_binaries ())

let test_restore_rejects_garbage () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let reject name payload =
    match Ir.restore binary payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s unexpectedly restored" name
  in
  reject "empty" "";
  reject "text codec" "ZIRIR1\nB 0 0\n";
  let snap = Ir.snapshot (Ir.build binary) in
  reject "truncated" (String.sub snap 0 (String.length snap / 2))

(* Bytes of the LEB128 encoding of a non-negative int. *)
let rec uleb_len n = if n < 0x80 then 1 else 1 + uleb_len (n lsr 7)

let test_restore_refuses_unvouched () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let ir = Ir.build binary in
  let snap = Ir.snapshot ir in
  let refused what payload b =
    match Ir.restore b payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: restored" what
  in
  (match Ir.restore binary snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the intact payload does not restore: %s" e);
  for n = 0 to String.length snap - 1 do
    refused (Printf.sprintf "prefix of %d bytes" n) (String.sub snap 0 n) binary
  done;
  refused "trailing byte" (snap ^ "\000") binary;
  (* The boundary byte of the first instruction: version, base, length,
     then one byte per text offset with the boundary length in bits 2-4. *)
  let agg = ir.Ir.aggregate in
  let base = agg.Disasm.Aggregate.base and insn_at = agg.Disasm.Aggregate.insn_at in
  let off =
    let rec first off = if Hashtbl.mem insn_at (base + off) then off else first (off + 1) in
    first 0
  in
  let _, len = Hashtbl.find insn_at (base + off) in
  let at =
    String.length Ir.snapshot_version + uleb_len base + uleb_len agg.Disasm.Aggregate.len + off
  in
  let byte = Char.code snap.[at] in
  Alcotest.(check int) "layout: boundary length at the text offset" len (byte lsr 2);
  let wrong = if len = 1 then 2 else len - 1 in
  let bad = Bytes.of_string snap in
  Bytes.set_uint8 bad at ((byte land 3) lor (wrong lsl 2));
  refused "boundary length disagrees with the decode" (Bytes.to_string bad) binary;
  (* The same payload against a text at another base, and a longer one. *)
  let text = Zelf.Binary.text binary in
  let with_text t =
    {
      binary with
      Zelf.Binary.sections =
        List.map (fun s -> if s == text then t else s) binary.Zelf.Binary.sections;
    }
  in
  refused "text base differs" snap
    (with_text { text with Zelf.Section.vaddr = text.Zelf.Section.vaddr + 0x10000 });
  refused "text length differs" snap
    (with_text
       {
         text with
         Zelf.Section.data = Bytes.cat text.Zelf.Section.data (Bytes.make 1 '\x90');
         size = text.Zelf.Section.size + 1;
       })

(* -- the content-addressed store itself -- *)

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c ~key:"k1" "v1";
  Cache.store c ~key:"k2" "v2";
  Alcotest.(check (option string)) "k1 present" (Some "v1") (Cache.find c "k1");
  (* k1 was just used, so a third entry evicts k2. *)
  Cache.store c ~key:"k3" "v3";
  Alcotest.(check int) "capacity respected" 2 (Cache.mem_entries c);
  Alcotest.(check (option string)) "k1 survives (recently used)" (Some "v1") (Cache.find c "k1");
  Alcotest.(check (option string)) "k2 evicted" None (Cache.find c "k2");
  Alcotest.(check (option string)) "k3 present" (Some "v3") (Cache.find c "k3")

let test_disk_layer () =
  let dir =
    let f = Filename.temp_file "zipr_cache" "" in
    Sys.remove f;
    f
  in
  let key = Cache.key [ "disk"; "layer" ] in
  let c1 = Cache.create ~dir () in
  Alcotest.(check (option string)) "miss before store" None (Cache.find c1 key);
  Cache.store c1 ~key "payload-bytes";
  (* A fresh store over the same directory sees the entry: memory is
     empty, the disk layer hits. *)
  let c2 = Cache.create ~dir () in
  Alcotest.(check (option string)) "disk hit" (Some "payload-bytes") (Cache.find c2 key);
  (* Corrupt every entry file: the framed key no longer matches, so the
     entry reads back as a miss, never as a wrong payload. *)
  Array.iter
    (fun f ->
      let oc = open_out_bin (Filename.concat dir f) in
      output_string oc "ZIRCACHE1 not-the-key\ngarbage";
      close_out oc)
    (Sys.readdir dir);
  let c3 = Cache.create ~dir () in
  Alcotest.(check (option string)) "corrupt entry is a miss" None (Cache.find c3 key)

let test_key_sensitivity () =
  let fib, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let disp, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let conservative = { Analysis.Ibt.pin_after_calls = true } in
  let lax = { Analysis.Ibt.pin_after_calls = false } in
  let k = Zipr.Pipeline.ir_cache_key ~infer:false in
  Alcotest.(check string) "key is deterministic"
    (k ~pin_config:conservative fib)
    (k ~pin_config:conservative fib);
  Alcotest.(check bool) "pin config changes the key" true
    (k ~pin_config:conservative fib <> k ~pin_config:lax fib);
  Alcotest.(check bool) "input bytes change the key" true
    (k ~pin_config:conservative fib <> k ~pin_config:conservative disp);
  Alcotest.(check bool) "inference switch changes the key" true
    (k ~pin_config:conservative fib
    <> Zipr.Pipeline.ir_cache_key ~infer:true ~pin_config:conservative fib)

(* -- cache-served rewrites -- *)

let test_pipeline_cache_counts () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let baseline = Zipr.Pipeline.rewrite ~transforms binary in
  let cache = Cache.create () in
  let cold = Zipr.Pipeline.rewrite ~ir_cache:cache ~transforms binary in
  let warm = Zipr.Pipeline.rewrite ~ir_cache:cache ~transforms binary in
  Alcotest.(check bool) "no cache means no counts" true
    (baseline.Zipr.Pipeline.cache = Zipr.Pipeline.zero_cache_stats);
  Alcotest.(check bool) "cold run is a miss" true
    (cold.Zipr.Pipeline.cache
    = { Zipr.Pipeline.zero_cache_stats with Zipr.Pipeline.ir_cache_misses = 1 });
  Alcotest.(check bool) "warm run is a hit" true
    (warm.Zipr.Pipeline.cache
    = { Zipr.Pipeline.zero_cache_stats with Zipr.Pipeline.ir_cache_hits = 1 });
  let bytes_of (r : Zipr.Pipeline.result) = Zelf.Binary.serialize r.Zipr.Pipeline.rewritten in
  Alcotest.(check bool) "miss output byte-identical to uncached" true
    (Bytes.equal (bytes_of baseline) (bytes_of cold));
  Alcotest.(check bool) "hit output byte-identical to uncached" true
    (Bytes.equal (bytes_of baseline) (bytes_of warm))

(* A cached payload that does not restore is a miss: the rewrite builds
   cold, matches the uncached bytes, and re-stores a good entry. *)
let test_pipeline_restore_fallback () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let pin_config = Zipr.Pipeline.default_config.Zipr.Pipeline.pin_config in
  let baseline = Zipr.Pipeline.rewrite ~transforms binary in
  let cache = Cache.create () in
  let key = Zipr.Pipeline.ir_cache_key ~pin_config ~infer:false binary in
  let bad = Ir.snapshot (Ir.build ~pin_config binary) ^ "\000" in
  Alcotest.(check bool) "the planted payload does not restore" true
    (Result.is_error (Ir.restore binary bad));
  Cache.store cache ~key bad;
  let r = Zipr.Pipeline.rewrite ~ir_cache:cache ~transforms binary in
  Alcotest.(check bool) "output byte-identical to uncached" true
    (Bytes.equal
       (Zelf.Binary.serialize baseline.Zipr.Pipeline.rewritten)
       (Zelf.Binary.serialize r.Zipr.Pipeline.rewritten));
  Alcotest.(check bool) "counted as one miss" true
    (r.Zipr.Pipeline.cache
    = { Zipr.Pipeline.zero_cache_stats with Zipr.Pipeline.ir_cache_misses = 1 });
  match Cache.find cache key with
  | None -> Alcotest.fail "nothing re-stored"
  | Some payload ->
      Alcotest.(check bool) "the re-stored entry restores" true
        (Result.is_ok (Ir.restore binary payload))

let test_corpus_warm_hits () =
  let items =
    List.filter_map
      (fun (name, b) ->
        if name = "dense-pins" then None
        else Some { Corpus.name; data = Zelf.Binary.serialize b })
      (named_binaries ())
  in
  let n = List.length items in
  let outputs (r : Corpus.report) =
    List.map
      (fun (e : Corpus.entry) ->
        match e.Corpus.result with
        | Ok o -> o.Corpus.rewritten
        | Error e -> Alcotest.failf "rewrite failed: %s" e)
      r.Corpus.entries
  in
  let baseline = Corpus.rewrite_all ~jobs:1 ~transforms ~corpus_seed:5 items in
  let cache = Cache.create () in
  let cold = Corpus.rewrite_all ~jobs:1 ~transforms ~ir_cache:cache ~corpus_seed:5 items in
  Alcotest.(check int) "cold run misses every item" n
    cold.Corpus.merged_cache.Zipr.Pipeline.ir_cache_misses;
  Alcotest.(check bool) "cold outputs byte-identical to uncached" true
    (List.for_all2 Bytes.equal (outputs baseline) (outputs cold));
  List.iter
    (fun jobs ->
      let warm = Corpus.rewrite_all ~jobs ~transforms ~ir_cache:cache ~corpus_seed:5 items in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: every item served from cache" jobs)
        n warm.Corpus.merged_cache.Zipr.Pipeline.ir_cache_hits;
      Alcotest.(check int) (Printf.sprintf "jobs %d: no misses" jobs) 0
        warm.Corpus.merged_cache.Zipr.Pipeline.ir_cache_misses;
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: warm outputs byte-identical to uncached" jobs)
        true
        (List.for_all2 Bytes.equal (outputs baseline) (outputs warm)))
    [ 1; 4 ]

(* -- byte-budget LRU: the serve daemon's multi-tenant cache bound.
      Entry cost is key + payload bytes; the invariants pinned here are
      (a) resident_bytes never exceeds the budget, (b) eviction follows
      recency, (c) replacement does not double-count, (d) an entry
      larger than the whole budget is refused outright. -- *)

let k8 c = String.make 8 c
let pay n = String.make n 'p'

let test_budget_invariant () =
  (* Entries cost 8 (key) + 92 (payload) = 100 bytes; a 250-byte budget
     holds two. *)
  let c = Cache.create ~capacity:64 ~max_bytes:250 () in
  Cache.store c ~key:(k8 'a') (pay 92);
  Cache.store c ~key:(k8 'b') (pay 92);
  Alcotest.(check int) "two resident" 2 (Cache.mem_entries c);
  Alcotest.(check int) "200 bytes resident" 200 (Cache.resident_bytes c);
  Cache.store c ~key:(k8 'c') (pay 92);
  Alcotest.(check int) "still two resident" 2 (Cache.mem_entries c);
  Alcotest.(check bool) "budget holds" true (Cache.resident_bytes c <= 250);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check bool) "oldest (a) evicted" true (Cache.find c (k8 'a') = None);
  Alcotest.(check bool) "b survives" true (Cache.find c (k8 'b') <> None);
  Alcotest.(check bool) "newcomer resident" true (Cache.find c (k8 'c') <> None)

let test_budget_eviction_order () =
  let c = Cache.create ~capacity:64 ~max_bytes:250 () in
  Cache.store c ~key:(k8 'a') (pay 92);
  Cache.store c ~key:(k8 'b') (pay 92);
  (* Touch [a]: now [b] is least recently used and must be the victim. *)
  ignore (Cache.find c (k8 'a'));
  Cache.store c ~key:(k8 'c') (pay 92);
  Alcotest.(check bool) "recently-used a survives" true (Cache.find c (k8 'a') <> None);
  Alcotest.(check bool) "lru b evicted" true (Cache.find c (k8 'b') = None)

let test_budget_replacement_accounting () =
  let c = Cache.create ~capacity:64 ~max_bytes:1000 () in
  Cache.store c ~key:(k8 'a') (pay 492);
  Alcotest.(check int) "500 resident" 500 (Cache.resident_bytes c);
  Cache.store c ~key:(k8 'a') (pay 92);
  Alcotest.(check int) "replacement, not accumulation" 100 (Cache.resident_bytes c);
  Alcotest.(check int) "one entry" 1 (Cache.mem_entries c);
  Cache.store c ~key:(k8 'a') (pay 492);
  Alcotest.(check int) "grown back in place" 500 (Cache.resident_bytes c);
  Alcotest.(check int) "no evictions for self-replacement" 0 (Cache.evictions c)

let test_budget_oversize_refused () =
  let c = Cache.create ~capacity:64 ~max_bytes:250 () in
  Cache.store c ~key:(k8 'a') (pay 92);
  (* 8 + 400 > 250: refusing it must not evict the resident entry. *)
  Cache.store c ~key:(k8 'z') (pay 400);
  Alcotest.(check bool) "oversize entry absent" true (Cache.find c (k8 'z') = None);
  Alcotest.(check int) "oversize counted" 1 (Cache.oversize_skips c);
  Alcotest.(check int) "no eviction" 0 (Cache.evictions c);
  Alcotest.(check bool) "resident entry untouched" true (Cache.find c (k8 'a') <> None)

let test_budget_many_inserts_hold_invariant () =
  let c = Cache.create ~capacity:1000 ~max_bytes:1024 () in
  for i = 0 to 199 do
    let key = Cache.key [ string_of_int i ] in
    Cache.store c ~key (pay (17 + (i * 13 mod 100)));
    Alcotest.(check bool)
      (Printf.sprintf "budget holds after insert %d" i)
      true
      (Cache.resident_bytes c <= 1024)
  done;
  Alcotest.(check bool) "evictions happened" true (Cache.evictions c > 0);
  Alcotest.(check bool) "still serving hits" true
    (Cache.find c (Cache.key [ "199" ]) <> None)

(* Hammer the byte-budget LRU from 4 domains through the worker pool:
   each worker stores and reads back many varied-size entries against one
   shared cache, sampling [resident_bytes] as it goes.  The budget must
   hold at every sample and after the join — the mutex makes
   evict-then-insert atomic, so no interleaving can overshoot. *)
let test_budget_concurrent_hammer () =
  let budget = 4096 in
  let c = Cache.create ~capacity:10_000 ~max_bytes:budget () in
  let work w =
    let violations = ref 0 in
    for i = 0 to 299 do
      let key = Cache.key [ string_of_int w; string_of_int i ] in
      Cache.store c ~key (pay (33 + ((w * 977) + (i * 131)) mod 700));
      ignore (Cache.find c key);
      if Cache.resident_bytes c > budget then incr violations
    done;
    !violations
  in
  let timed, _, _ = Parallel.Pool.map ~jobs:4 work [| 0; 1; 2; 3 |] in
  let violations = Array.fold_left (fun acc t -> acc + t.Parallel.Pool.value) 0 timed in
  Alcotest.(check int) "no budget violation observed by any domain" 0 violations;
  Alcotest.(check bool) "budget holds after join" true (Cache.resident_bytes c <= budget);
  Alcotest.(check bool) "churn forced evictions" true (Cache.evictions c > 0)

(* -- disk-layer bounds (serve's shared --cache directory must not grow
      without limit across daemon restarts) -- *)

let fresh_dir () =
  let f = Filename.temp_file "zipr_cache" "" in
  Sys.remove f;
  f

let zirc_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".zirc")

let test_disk_entry_bound () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir ~max_disk_entries:5 () in
  for i = 0 to 19 do
    Cache.store c ~key:(Cache.key [ "de"; string_of_int i ]) (pay 50)
  done;
  Alcotest.(check int) "at most 5 entry files" 5 (List.length (zirc_files dir));
  Alcotest.(check int) "15 pruned" 15 (Cache.disk_evictions c);
  Alcotest.(check bool) "newest entry still served from disk" true
    (Cache.find (Cache.create ~dir ()) (Cache.key [ "de"; "19" ]) <> None)

let test_disk_byte_bound () =
  let dir = fresh_dir () in
  (* Entry files carry framing overhead beyond the 100-byte payload, so
     bound by a generous per-entry estimate and assert the real total. *)
  let c = Cache.create ~dir ~max_disk_bytes:1024 () in
  for i = 0 to 19 do
    Cache.store c ~key:(Cache.key [ "db"; string_of_int i ]) (pay 100)
  done;
  let total =
    List.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (zirc_files dir)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disk bytes bounded (%d <= 1024)" total)
    true (total <= 1024);
  Alcotest.(check bool) "pruning happened" true (Cache.disk_evictions c > 0)

(* Two instances sharing one bounded directory: the prune counts both
   instances' entry files — and a [.zirr] routine fragment an older
   release left there — against the one bound, and leaves every other
   file alone. *)
let test_disk_bound_shared () =
  let dir = fresh_dir () in
  let c = Cache.create ~dir ~max_disk_entries:3 () in
  let other = Cache.create ~dir ~max_disk_entries:3 () in
  let write name s =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc s)
  in
  write "notes.txt" "not an entry";
  let fragment = Cache.key [ "fragment" ] ^ ".zirr" in
  write fragment "ZIRFRAG1 stale";
  Unix.utimes (Filename.concat dir fragment) 1.0 1.0;
  Cache.store c ~key:(Cache.key [ "s"; "0" ]) (pay 10);
  for i = 0 to 3 do
    Cache.store other ~key:(Cache.key [ "o"; string_of_int i ]) (pay 10)
  done;
  let entries = List.filter (( <> ) "notes.txt") (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check int) "both instances' files share the bound" 3 (List.length entries);
  Alcotest.(check bool) "the old fragment counted, and went first" false
    (List.mem fragment entries);
  Alcotest.(check int) "the instance that overflowed pruned" 3 (Cache.disk_evictions other);
  Alcotest.(check bool) "other files untouched" true
    (Sys.file_exists (Filename.concat dir "notes.txt"))

(* A directory already over its bound shrinks when a bounded instance
   opens it, even if that instance only hits: the oldest files go, and
   the newest still serve. *)
let test_disk_bound_on_open () =
  let dir = fresh_dir () in
  let seeded = Cache.create ~dir () in
  let key i = Cache.key [ "open"; string_of_int i ] in
  for i = 0 to 9 do
    Cache.store seeded ~key:(key i) (pay 10);
    Unix.utimes (Filename.concat dir (key i ^ ".zirc")) (float (1000 + i)) (float (1000 + i))
  done;
  let c = Cache.create ~dir ~max_disk_entries:4 () in
  for i = 6 to 9 do
    Alcotest.(check bool) (Printf.sprintf "entry %d hits" i) true (Cache.find c (key i) <> None)
  done;
  Alcotest.(check int) "at most the bound remains" 4 (List.length (zirc_files dir));
  Alcotest.(check int) "the open pruned the six oldest" 6 (Cache.disk_evictions c)

(* The store's LRU against a list model: random store/find sequences on
   a small instance, under the entry bound, the byte bound or both.
   Every find must hit or miss as the model does, with the same payload,
   and the evictions, skipped oversize payloads, entry count and
   resident bytes must agree after every step. *)
type lru_op = Store of int * int | Find of int

let prop_lru_model =
  let gen =
    QCheck.Gen.(
      triple (1 -- 5)
        (oneof [ return None; map Option.some (8 -- 60) ])
        (list_size (0 -- 80)
           (oneof
              [
                map2 (fun k w -> Store (k, w)) (0 -- 6) (1 -- 24);
                map (fun k -> Find k) (0 -- 6);
              ])))
  in
  let print (capacity, max_bytes, ops) =
    Printf.sprintf "capacity %d, max_bytes %s: %s" capacity
      (Option.fold ~none:"none" ~some:string_of_int max_bytes)
      (String.concat " "
         (List.map
            (function
              | Store (k, w) -> Printf.sprintf "store k%d:%d" k w
              | Find k -> Printf.sprintf "find k%d" k)
            ops))
  in
  QCheck.Test.make ~count:500 ~name:"LRU store matches a list model under both bounds"
    (QCheck.make ~print gen)
    (fun (capacity, max_bytes, ops) ->
      let c = Cache.create ~capacity ?max_bytes () in
      (* Model: (key, weight) pairs, newest first; an entry charges its
         key length plus its weight. *)
      let model = ref [] and evictions = ref 0 and oversize = ref 0 in
      let bytes es = List.fold_left (fun a (k, w) -> a + String.length k + w) 0 es in
      let over_budget es = match max_bytes with Some b -> bytes es > b | None -> false in
      let step = function
        | Find k ->
            let k = Printf.sprintf "k%d" k in
            let want = List.assoc_opt k !model in
            Option.iter (fun w -> model := (k, w) :: List.remove_assoc k !model) want;
            Cache.find c k = Option.map pay want
        | Store (k, w) ->
            let k = Printf.sprintf "k%d" k in
            Cache.store c ~key:k (pay w);
            let rest = List.remove_assoc k !model in
            if over_budget [ (k, w) ] then begin
              incr oversize;
              model := rest
            end
            else begin
              let rec evict es =
                if es <> [] && (List.length es >= capacity || over_budget ((k, w) :: es))
                then begin
                  incr evictions;
                  evict (List.filteri (fun i _ -> i < List.length es - 1) es)
                end
                else es
              in
              model := (k, w) :: evict rest
            end;
            true
      in
      List.for_all
        (fun op ->
          step op
          && Cache.evictions c = !evictions
          && Cache.oversize_skips c = !oversize
          && Cache.mem_entries c = List.length !model
          && Cache.resident_bytes c = bytes !model)
        ops)

(* The snapshot cache reports under the [irdb.cache.*] names of DESIGN
   §10.2: a cold rewrite misses and stores, a warm one hits memory. *)
let test_counter_names () =
  let sink = Obs.Tracer.create () in
  Obs.install sink;
  Fun.protect ~finally:Obs.disable (fun () ->
      let cache = Cache.create () in
      let binary = fst (Testprogs.assemble (Testprogs.fib_program ())) in
      for _ = 1 to 2 do
        ignore (Zipr.Pipeline.rewrite ~ir_cache:cache ~transforms binary)
      done;
      let counts = Obs.Counters.snapshot (Obs.Tracer.counters sink) in
      let get n =
        match List.find_opt (fun (n', _, _) -> n' = n) counts with
        | Some (_, _, v) -> v
        | None -> 0
      in
      List.iter
        (fun (n, v) -> Alcotest.(check int) n v (get n))
        [
          ("irdb.cache.lookups", 2);
          ("irdb.cache.misses", 1);
          ("irdb.cache.mem_hits", 1);
          ("irdb.cache.disk_hits", 0);
          ("irdb.cache.stores", 1);
        ])

let suite =
  [
    Alcotest.test_case "exact IRDB codec round-trips" `Quick test_exact_dump_roundtrip;
    Alcotest.test_case "boundary rows: shared, edited, refused" `Quick test_boundary_rows;
    Alcotest.test_case "IR snapshot/restore round-trips" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "restore rejects malformed payloads" `Quick test_restore_rejects_garbage;
    Alcotest.test_case "restore refuses what it cannot vouch for" `Quick
      test_restore_refuses_unvouched;
    Alcotest.test_case "LRU eviction respects capacity and recency" `Quick test_lru_eviction;
    Alcotest.test_case "byte budget: eviction keeps resident <= budget" `Quick
      test_budget_invariant;
    Alcotest.test_case "byte budget: eviction follows recency" `Quick test_budget_eviction_order;
    Alcotest.test_case "byte budget: replacement does not double-count" `Quick
      test_budget_replacement_accounting;
    Alcotest.test_case "byte budget: oversize payloads are refused" `Quick
      test_budget_oversize_refused;
    Alcotest.test_case "byte budget: invariant holds under churn" `Quick
      test_budget_many_inserts_hold_invariant;
    Alcotest.test_case "byte budget: holds under 4-domain hammer" `Slow
      test_budget_concurrent_hammer;
    QCheck_alcotest.to_alcotest prop_lru_model;
    Alcotest.test_case "disk layer: entry-count bound prunes oldest" `Quick
      test_disk_entry_bound;
    Alcotest.test_case "disk layer: byte bound prunes oldest" `Quick test_disk_byte_bound;
    Alcotest.test_case "disk layer: opening a directory over its bound prunes it" `Quick
      test_disk_bound_on_open;
    Alcotest.test_case "disk layer: one bound covers a shared directory" `Quick
      test_disk_bound_shared;
    Alcotest.test_case "obs counters keep the irdb.cache names" `Quick
      test_counter_names;
    Alcotest.test_case "disk layer round-trips; corruption is a miss" `Quick test_disk_layer;
    Alcotest.test_case "cache key tracks version, config, input" `Quick test_key_sensitivity;
    Alcotest.test_case "pipeline counts hits/misses, outputs identical" `Quick
      test_pipeline_cache_counts;
    Alcotest.test_case "pipeline rebuilds when a cached payload does not restore" `Quick
      test_pipeline_restore_fallback;
    Alcotest.test_case "corpus warm runs hit for every item (jobs 1/4)" `Slow
      test_corpus_warm_hits;
  ]
