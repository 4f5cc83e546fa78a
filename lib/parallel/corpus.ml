module Rng = Zipr_util.Rng

type item = { name : string; data : bytes }

type outcome = {
  rewritten : bytes;
  stats : Zipr.Reassemble.stats;
  tally : Disasm.Aggregate.tally;
  timing : Zipr.Pipeline.timing;
  cache : Zipr.Pipeline.cache_stats;
}

type entry = {
  index : int;
  name : string;
  seed : int;
  result : (outcome, string) Stdlib.result;
  elapsed_s : float;
  queue_wait_s : float;
  worker : int;
}

type report = {
  jobs : int;
  corpus_seed : int;
  entries : entry list;
  ok : int;
  failed : int;
  merged_stats : Zipr.Reassemble.stats;
  merged_tally : Disasm.Aggregate.tally;
  merged_timing : Zipr.Pipeline.timing;
  merged_cache : Zipr.Pipeline.cache_stats;
  rewrite_total_s : float;
  wall_clock_s : float;
  queue_wait_total_s : float;
  queue_wait_max_s : float;
  pool_spawn_s : float;
  shards : Pool.worker_stat list;
}

(* The per-item task: total by construction.  [Pipeline.try_rewrite]
   renders pipeline exceptions; parse errors are rendered here; both
   leave the worker alive for the next item. *)
let rewrite_one ?ir_cache ~config ~transforms ~corpus_seed (index, it) =
  let seed = Rng.derive ~corpus_seed ~index in
  let config = { config with Zipr.Pipeline.seed } in
  let result =
    match Zelf.Binary.parse it.data with
    | Error e ->
        Error (Format.asprintf "parse error: %a" Zelf.Binary.pp_parse_error e)
    | Ok binary ->
        Result.map
          (fun (r : Zipr.Pipeline.result) ->
            {
              rewritten = Zelf.Binary.serialize r.Zipr.Pipeline.rewritten;
              stats = r.Zipr.Pipeline.stats;
              tally =
                r.Zipr.Pipeline.ir.Zipr.Ir_construction.aggregate
                  .Disasm.Aggregate.tally;
              timing = r.Zipr.Pipeline.timing;
              cache = r.Zipr.Pipeline.cache;
            })
          (Zipr.Pipeline.try_rewrite ~config ?ir_cache ~transforms binary)
  in
  (seed, result)

let rewrite_all ?(jobs = 1) ?(config = Zipr.Pipeline.default_config) ?(transforms = [])
    ?ir_cache ~corpus_seed items =
  Obs.span "corpus" (fun () ->
  (* 0 means auto-detect, same rule as every other jobs knob; the report
     carries the resolved value so runs are self-describing. *)
  let jobs = Zipr.Pipeline.resolve_jobs jobs in
  let arr = Array.of_list items in
  Obs.count "corpus.binaries" (Array.length arr);
  let n = Array.length arr in
  let tagged = Array.mapi (fun i it -> (i, it)) arr in
  let task = rewrite_one ?ir_cache ~config ~transforms ~corpus_seed in
  (* Domain spawn is pool overhead, not rewriting: keep it out of
     [wall_clock_s] (and report it separately) so the wall clock
     measures work, not work plus startup. *)
  let spawn0 = Unix.gettimeofday () in
  let pool = if jobs > 1 && n > 1 then Some (Pool.create ~jobs:(min jobs n) ()) else None in
  let pool_spawn_s = Unix.gettimeofday () -. spawn0 in
  let t0 = Unix.gettimeofday () in
  let timed, shards, qstats =
    match pool with
    | Some p -> Pool.map_on p task tagged
    | None -> Pool.map ~jobs task tagged
  in
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  let entries =
    List.init (Array.length arr) (fun index ->
        let t = timed.(index) in
        let seed, result = t.Pool.value in
        {
          index;
          name = arr.(index).name;
          seed;
          result;
          elapsed_s = t.Pool.elapsed_s;
          queue_wait_s = t.Pool.queue_wait_s;
          worker = t.Pool.worker;
        })
  in
  (* Fold in index order: the stats/timing merges are commutative, but
     warning lists concatenate, and index order makes the report a pure
     function of the inputs. *)
  let ok, failed, merged_stats, merged_tally, merged_timing, merged_cache, rewrite_total_s
      =
    List.fold_left
      (fun (ok, failed, ms, mg, mt, mc, tot) e ->
        match e.result with
        | Ok o ->
            ( ok + 1,
              failed,
              Zipr.Reassemble.merge_stats ms o.stats,
              Disasm.Aggregate.merge_stats mg o.tally,
              Zipr.Pipeline.add_timing mt o.timing,
              Zipr.Pipeline.add_cache_stats mc o.cache,
              tot +. e.elapsed_s )
        | Error _ -> (ok, failed + 1, ms, mg, mt, mc, tot +. e.elapsed_s))
      ( 0,
        0,
        Zipr.Reassemble.zero_stats,
        Disasm.Aggregate.tally_zero,
        Zipr.Pipeline.zero_timing,
        Zipr.Pipeline.zero_cache_stats,
        0.0 )
      entries
  in
  {
    jobs;
    corpus_seed;
    entries;
    ok;
    failed;
    merged_stats;
    merged_tally;
    merged_timing;
    merged_cache;
    rewrite_total_s;
    wall_clock_s;
    pool_spawn_s;
    queue_wait_total_s = qstats.Pool.wait_total_s;
    queue_wait_max_s = qstats.Pool.wait_max_s;
    shards = Array.to_list shards;
  })

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>corpus: %d binaries, %d ok, %d failed (jobs=%d, corpus-seed=%d)@,\
     wall %.3fs (+%.3fs pool spawn), serial-equivalent %.3fs, queue wait total %.3fs max \
     %.3fs@,\
     merged: %a@,\
     merged timing: ir %.3fs transform %.3fs reassembly %.3fs@,\
     ir-cache: %d hits, %d misses@,"
    (r.ok + r.failed) r.ok r.failed r.jobs r.corpus_seed r.wall_clock_s r.pool_spawn_s
    r.rewrite_total_s r.queue_wait_total_s r.queue_wait_max_s Zipr.Reassemble.pp_stats
    r.merged_stats r.merged_timing.Zipr.Pipeline.ir_construction_s
    r.merged_timing.Zipr.Pipeline.transformation_s
    r.merged_timing.Zipr.Pipeline.reassembly_s r.merged_cache.Zipr.Pipeline.ir_cache_hits
    r.merged_cache.Zipr.Pipeline.ir_cache_misses;
  (* Aggregator byte accounting, merged over the corpus with the tally
     monoid — independent of job count and completion order. *)
  Format.fprintf ppf "merged aggregation:%s@,"
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf " %s=%d" k v)
          (Disasm.Aggregate.tally_fields r.merged_tally)));
  List.iter
    (fun (s : Pool.worker_stat) ->
      Format.fprintf ppf "shard %d: %d binaries, busy %.3fs@," s.Pool.worker s.Pool.tasks_run
        s.Pool.busy_s)
    r.shards;
  List.iter
    (fun e ->
      match e.result with
      | Error msg -> Format.fprintf ppf "FAILED %s (index %d): %s@," e.name e.index msg
      | Ok _ -> ())
    r.entries;
  Format.fprintf ppf "@]"
