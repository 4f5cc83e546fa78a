type config = {
  placement : Placement.t;
  pin_config : Analysis.Ibt.config;
  seed : int;
  infer : bool;
      (* run the inference refiner as a third disassembly source;
         off by default so every existing path is byte-identical *)
}

let default_config =
  {
    placement = Placement.optimized;
    pin_config = Analysis.Ibt.default_config;
    seed = 1;
    infer = false;
  }

(* 0 means "ask the runtime", so every jobs knob resolves the same way
   and the resolved value can be surfaced. *)
let resolve_jobs j = if j = 0 then Domain.recommended_domain_count () else max 1 j

type timing = {
  ir_construction_s : float;
  transformation_s : float;
  reassembly_s : float;
}

type cache_stats = { ir_cache_hits : int; ir_cache_misses : int }

type result = {
  rewritten : Zelf.Binary.t;
  ir : Ir_construction.t;
  stats : Reassemble.stats;
  timing : timing;
  cache : cache_stats;
}

let zero_timing = { ir_construction_s = 0.0; transformation_s = 0.0; reassembly_s = 0.0 }

let add_timing a b =
  {
    ir_construction_s = a.ir_construction_s +. b.ir_construction_s;
    transformation_s = a.transformation_s +. b.transformation_s;
    reassembly_s = a.reassembly_s +. b.reassembly_s;
  }

let zero_cache_stats = { ir_cache_hits = 0; ir_cache_misses = 0 }

let add_cache_stats a b =
  {
    ir_cache_hits = a.ir_cache_hits + b.ir_cache_hits;
    ir_cache_misses = a.ir_cache_misses + b.ir_cache_misses;
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let ir_cache_key ~pin_config ~infer binary =
  Irdb.Cache.key
    [
      Ir_construction.snapshot_version;
      Ir_construction.fingerprint ~infer pin_config;
      Bytes.to_string (Zelf.Binary.serialize binary);
    ]

(* IR acquisition: a cache hit restores the snapshot (skipping
   disassembly, pin analysis and IR build); a miss — or a payload the
   codec rejects — builds cold and (re)publishes the snapshot.  Either
   way [ir_construction_s] times whichever path actually ran. *)
let obtain_ir ?ir_cache ?(infer = false) ~pin_config binary =
  let build () =
    timed (fun () ->
        Obs.span "ir" ~args:[ ("source", "build") ] (fun () ->
            Ir_construction.build ~pin_config ~infer binary))
  in
  match ir_cache with
  | None ->
      let ir, t = build () in
      (ir, t, zero_cache_stats)
  | Some cache -> (
      let key = ir_cache_key ~pin_config ~infer binary in
      let build_and_store () =
        let ir, t = build () in
        Irdb.Cache.store cache ~key (Ir_construction.snapshot ir);
        Obs.count "pipeline.ir_cache_misses" 1;
        (ir, t, { zero_cache_stats with ir_cache_misses = 1 })
      in
      match Irdb.Cache.find cache key with
      | None -> build_and_store ()
      | Some payload -> (
          match
            timed (fun () ->
                Obs.span "ir" ~args:[ ("source", "cache") ] (fun () ->
                    Ir_construction.restore binary payload))
          with
          | Ok ir, t ->
              Obs.count "pipeline.ir_cache_hits" 1;
              (ir, t, { zero_cache_stats with ir_cache_hits = 1 })
          | Error _, _ -> build_and_store ()))

(* Per-transform spans want a computed name ("transform:cfi"); build the
   string only when a sink is installed so the default path keeps
   [Transform.apply_all] allocation-for-allocation unchanged. *)
let apply_transforms transforms db =
  if Obs.enabled () then
    Obs.span "transforms" (fun () ->
        List.iter
          (fun (t : Transform.t) ->
            Obs.span ("transform:" ^ t.Transform.name) (fun () ->
                Transform.apply_all [ t ] db))
          transforms)
  else Transform.apply_all transforms db

let rewrite ?(config = default_config) ?ir_cache ~transforms binary =
  Obs.span "rewrite" (fun () ->
      let ir, ir_construction_s, cache =
        obtain_ir ?ir_cache ~infer:config.infer ~pin_config:config.pin_config binary
      in
      let (), transformation_s =
        timed (fun () -> apply_transforms transforms ir.Ir_construction.db)
      in
      let (rewritten, stats), reassembly_s =
        timed (fun () ->
            Obs.span "reassemble" (fun () ->
                Reassemble.run ~strategy:config.placement ~seed:config.seed ir))
      in
      {
        rewritten;
        ir;
        stats;
        timing = { ir_construction_s; transformation_s; reassembly_s };
        cache;
      })

let try_rewrite ?config ?ir_cache ~transforms binary =
  match rewrite ?config ?ir_cache ~transforms binary with
  | r -> Ok r
  | exception Reassemble.Failure_ msg -> Error ("reassembly failed: " ^ msg)
  | exception Stdlib.Failure msg -> Error ("pipeline failure: " ^ msg)
  | exception Invalid_argument msg -> Error ("pipeline invalid argument: " ^ msg)
  | exception Not_found -> Error "pipeline failure: lookup failed (Not_found)"

let rewrite_bytes ?config ?ir_cache ?routine_cache:(_ : Delta.t option) ~transforms raw =
  match Zelf.Binary.parse raw with
  | Error e -> Error (Format.asprintf "parse error: %a" Zelf.Binary.pp_parse_error e)
  | Ok binary ->
      Result.map
        (fun r -> Zelf.Binary.serialize r.rewritten)
        (try_rewrite ?config ?ir_cache ~transforms binary)
