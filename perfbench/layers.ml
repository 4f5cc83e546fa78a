(* The traced decomposition of one rewrite: the pipeline's public layer
   functions called from outside, in [Zipr.Pipeline]'s own order, each
   call inside a span.  Outputs must equal [Pipeline.rewrite_bytes] (or
   the daemon's payload) byte for byte; callers assert that. *)

module P = Zipr.Pipeline
module Ir = Zipr.Ir_construction

(* The caches of the process being modelled: none for an in-process
   cold rewrite, the daemon's capacities for a replay. *)
type caches = { ir_cache : Irdb.Cache.t option; routine_cache : Zipr.Delta.t option }

let no_caches = { ir_cache = None; routine_cache = None }

(* [Serve.Server.create]'s construction of its caches from the default
   daemon config, so a replay sees the same hits and evictions. *)
let daemon_caches ~delta =
  let c = Serve.Server.default_config in
  {
    ir_cache =
      Some
        (Irdb.Cache.create ~capacity:c.Serve.Server.cache_entries
           ~max_bytes:c.Serve.Server.cache_max_bytes ());
    routine_cache =
      (if delta then
         Some
           (Zipr.Delta.create ~fragment_bytes:c.Serve.Server.cache_max_bytes
              ~memo_capacity:c.Serve.Server.cache_entries ())
       else None);
  }

(* Work counters, summed over the traced requests. *)
type counts = {
  mutable requests : int;
  mutable ambiguous_bytes : int;
  mutable pins : int;
  mutable rows : int;
  mutable rows_added : int;
  mutable dollops_split : int;
  mutable chain_hops : int;
  mutable sleds : int;
  mutable overflow_bytes : int;
  mutable alloc_queries : int;
  mutable alloc_hits : int;
  mutable ir_lookups : int;
  mutable ir_hits : int;
  mutable snapshot_bytes : int;
  mutable routine_hits : int;
  mutable routine_misses : int;
  mutable memo_hits : int;
  mutable stitches : int;
  mutable fallbacks : int;
}

type t = { spans : Spans.t; c : counts }

(* The configuration of [rewrite_bytes] and of the daemon's requests. *)
let config = P.default_config
let pin_config = config.P.pin_config

let create () =
  {
    spans = Spans.create ();
    c =
      {
        requests = 0;
        ambiguous_bytes = 0;
        pins = 0;
        rows = 0;
        rows_added = 0;
        dollops_split = 0;
        chain_hops = 0;
        sleds = 0;
        overflow_bytes = 0;
        alloc_queries = 0;
        alloc_hits = 0;
        ir_lookups = 0;
        ir_hits = 0;
        snapshot_bytes = 0;
        routine_hits = 0;
        routine_misses = 0;
        memo_hits = 0;
        stitches = 0;
        fallbacks = 0;
      };
  }

(* [Ir_construction.build]: [Aggregate.run]'s three sources with its
   priority (linear, superset, recursive — lowest first), then the
   downstream build.  Returns the aggregate too, for the separate pins
   pass. *)
let cold_ir t ~req binary =
  let sp name f = Spans.with_span t.spans ~req name f in
  let lin = sp "disasm.linear" (fun () -> Disasm.Linear.sweep binary) in
  let rec_ = sp "disasm.recursive" (fun () -> Disasm.Recursive.traverse binary) in
  let sup = sp "disasm.superset" (fun () -> Disasm.Superset.run binary ~avoid:rec_) in
  let agg =
    sp "disasm.combine" (fun () ->
        Disasm.Aggregate.combine_sources binary
          [ Disasm.Source.of_linear lin; sup; Disasm.Source.of_recursive rec_ ])
  in
  let ir =
    sp "ir_construction.build" (fun () ->
        Ir.build_from_aggregate ~pin_config binary agg)
  in
  let _, _, ambiguous = Disasm.Aggregate.stats agg in
  t.c.ambiguous_bytes <- t.c.ambiguous_bytes + ambiguous;
  t.c.rows <- t.c.rows + Irdb.Db.count ir.Ir.db;
  t.c.pins <- t.c.pins + Analysis.Ibt.count ir.Ir.pins;
  (ir, agg)

(* [Pipeline.obtain_snapshot_ir]. *)
let snapshot_ir t ~req caches binary ~cold =
  let sp name f = Spans.with_span t.spans ~req name f in
  let build () =
    let ir, agg = cold_ir t ~req binary in
    cold := Some agg;
    ir
  in
  match caches.ir_cache with
  | None -> build ()
  | Some cache -> (
      t.c.ir_lookups <- t.c.ir_lookups + 1;
      let key, found =
        sp "irdb.lookup" (fun () ->
            let key = P.ir_cache_key ~pin_config ~infer:false binary in
            (key, Irdb.Cache.find cache key))
      in
      let build_and_store () =
        let ir = build () in
        let snap = sp "irdb.snapshot" (fun () -> Ir.snapshot ir) in
        t.c.snapshot_bytes <- t.c.snapshot_bytes + String.length snap;
        sp "irdb.lookup" (fun () -> Irdb.Cache.store cache ~key snap);
        ir
      in
      match found with
      | None -> build_and_store ()
      | Some payload -> (
          match sp "irdb.restore" (fun () -> Ir.restore binary payload) with
          | Ok ir ->
              t.c.ir_hits <- t.c.ir_hits + 1;
              ir
          | Error _ -> build_and_store ()))

(* [Pipeline.obtain_ir]: the delta path first, then the snapshot path,
   harvesting whatever it built. *)
let obtain_ir t ~req caches binary ~cold =
  match caches.routine_cache with
  | None -> snapshot_ir t ~req caches binary ~cold
  | Some dc -> (
      let sp name f = Spans.with_span t.spans ~req name f in
      let o =
        sp "delta.obtain" (fun () ->
            Zipr.Delta.obtain dc ~pin_config ~infer:false binary)
      in
      t.c.routine_hits <- t.c.routine_hits + o.Zipr.Delta.routine_hits;
      t.c.routine_misses <- t.c.routine_misses + o.Zipr.Delta.routine_misses;
      match o.Zipr.Delta.ir with
      | Some ir ->
          if o.Zipr.Delta.delta_built then t.c.stitches <- t.c.stitches + 1
          else t.c.memo_hits <- t.c.memo_hits + 1;
          ir
      | None ->
          t.c.fallbacks <- t.c.fallbacks + 1;
          let ir = snapshot_ir t ~req caches binary ~cold in
          sp "delta.harvest" (fun () -> Zipr.Delta.harvest dc o ir);
          ir)

let rewrite_body t ~req caches ~transforms binary ~cold =
  let sp name f = Spans.with_span t.spans ~req name f in
  let ir = obtain_ir t ~req caches binary ~cold in
  let db = ir.Ir.db in
  let before = Irdb.Db.count db in
  sp "transforms.apply" (fun () -> Zipr.Transform.apply_all transforms db);
  t.c.rows_added <- t.c.rows_added + Irdb.Db.count db - before;
  let rewritten, (s : Zipr.Reassemble.stats) =
    sp "reassemble.run" (fun () ->
        Zipr.Reassemble.run ~strategy:config.P.placement ~seed:config.P.seed ir)
  in
  t.c.dollops_split <- t.c.dollops_split + s.dollops_split;
  t.c.chain_hops <- t.c.chain_hops + s.chain_hops;
  t.c.sleds <- t.c.sleds + s.sleds;
  t.c.overflow_bytes <- t.c.overflow_bytes + s.overflow_bytes;
  t.c.alloc_queries <- t.c.alloc_queries + s.alloc_queries;
  t.c.alloc_hits <- t.c.alloc_hits + s.alloc_hits;
  sp "zelf.serialize" (fun () -> Zelf.Binary.serialize rewritten)

(* One traced request: [Pipeline.rewrite_bytes] by its parts.  A cold
   build is followed, outside the request span, by one extra
   [Ibt.compute] over the same aggregate: the pins share of the build,
   which the build itself does not expose. *)
let rewrite t ~req caches ~transforms raw =
  t.c.requests <- t.c.requests + 1;
  let cold = ref None in
  let result =
    Spans.with_span t.spans ~req "request" (fun () ->
        match Spans.with_span t.spans ~req "zelf.parse" (fun () -> Zelf.Binary.parse raw) with
        | Error e -> Error (Format.asprintf "parse error: %a" Zelf.Binary.pp_parse_error e)
        | Ok binary -> (
            match rewrite_body t ~req caches ~transforms binary ~cold with
            | out -> Ok (binary, out)
            | exception Zipr.Reassemble.Failure_ msg -> Error ("reassembly failed: " ^ msg)
            | exception (Failure msg | Invalid_argument msg) -> Error ("pipeline: " ^ msg)
            | exception Not_found -> Error "pipeline: Not_found"))
  in
  match result with
  | Error _ as e -> e
  | Ok (binary, out) ->
      (match !cold with
      | Some agg ->
          ignore
            (Spans.with_span t.spans ~req "analysis.pins" (fun () ->
                 Analysis.Ibt.compute ~config:pin_config binary agg))
      | None -> ());
      Ok out

(* Per-request means (ratios excepted) of everything the spans and
   counters saw, plus the request-level bookkeeping: mean traced request
   time, the part of it no layer span covers, and — given the untraced
   mean over the same requests — the tracing overhead. *)
let metrics t ~untraced_ms ~routine_cache =
  let n = float_of_int (max 1 t.c.requests) in
  let ms name = 1e3 *. fst (Spans.total t.spans name) /. n in
  let mw names =
    List.fold_left (fun a name -> a +. snd (Spans.total t.spans name)) 0.0 names /. 1e6 /. n
  in
  let per x = float_of_int x /. n in
  let m = Harness.metric in
  let request_ms = ms "request" in
  [
    m "zelf.parse_ms" "ms" (ms "zelf.parse");
    m "zelf.serialize_ms" "ms" (ms "zelf.serialize");
    m "disasm.linear_ms" "ms" (ms "disasm.linear");
    m "disasm.recursive_ms" "ms" (ms "disasm.recursive");
    m "disasm.superset_ms" "ms" (ms "disasm.superset");
    m "disasm.combine_ms" "ms" (ms "disasm.combine");
    m "disasm.alloc_mw" "Mwords"
      (mw [ "disasm.linear"; "disasm.recursive"; "disasm.superset"; "disasm.combine" ]);
    m "disasm.ambiguous_bytes" "count/req" (per t.c.ambiguous_bytes);
    m "analysis.pins_ms" "ms" (ms "analysis.pins");
    m "analysis.pins" "count/req" (per t.c.pins);
    m "ir_construction.build_ms" "ms" (ms "ir_construction.build" -. ms "analysis.pins");
    m "ir_construction.alloc_mw" "Mwords"
      (mw [ "ir_construction.build" ] -. mw [ "analysis.pins" ]);
    m "ir_construction.rows" "count/req" (per t.c.rows);
    m "transforms.apply_ms" "ms" (ms "transforms.apply");
    m "transforms.alloc_mw" "Mwords" (mw [ "transforms.apply" ]);
    m "transforms.rows_added" "count/req" (per t.c.rows_added);
    m "reassemble.run_ms" "ms" (ms "reassemble.run");
    m "reassemble.alloc_mw" "Mwords" (mw [ "reassemble.run" ]);
    m "reassemble.dollops_split" "count/req" (per t.c.dollops_split);
    m "reassemble.chain_hops" "count/req" (per t.c.chain_hops);
    m "reassemble.sleds" "count/req" (per t.c.sleds);
    m "reassemble.overflow_bytes" "count/req" (per t.c.overflow_bytes);
    m "reassemble.alloc_queries" "count/req" (per t.c.alloc_queries);
    m "reassemble.alloc_hit_ratio" "ratio" (Harness.ratio t.c.alloc_hits t.c.alloc_queries);
    m "irdb.lookup_ms" "ms" (ms "irdb.lookup");
    m "irdb.restore_ms" "ms" (ms "irdb.restore");
    m "irdb.snapshot_ms" "ms" (ms "irdb.snapshot");
    m "irdb.snapshot_kb" "KiB" (per t.c.snapshot_bytes /. 1024.0);
    m "irdb.cache_hit_ratio" "ratio" (Harness.ratio t.c.ir_hits t.c.ir_lookups);
    m "delta.obtain_ms" "ms" (ms "delta.obtain");
    m "delta.harvest_ms" "ms" (ms "delta.harvest");
    m "delta.routine_hit_ratio" "ratio"
      (Harness.ratio t.c.routine_hits (t.c.routine_hits + t.c.routine_misses));
    m "delta.memo_hits" "count/req" (per t.c.memo_hits);
    m "delta.stitches" "count/req" (per t.c.stitches);
    m "delta.fallbacks" "count/req" (per t.c.fallbacks);
    m "delta.fragment_mb" "MiB"
      (match routine_cache with
      | Some dc -> float_of_int (Zipr.Delta.fragment_bytes dc) /. 1048576.0
      | None -> 0.0);
    m "trace.request_ms" "ms" request_ms;
    m "trace.unattributed_ms" "ms" (1e3 *. Spans.self_time t.spans "request" /. n);
    m "trace.overhead_ms" "ms" (request_ms -. untraced_ms);
  ]
