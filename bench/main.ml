(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§IV) on the synthetic substrate.

   Experiments (see DESIGN.md's per-experiment index):
     e1          robustness: Null transform on the large workloads (§IV-A)
     fig4        file-size overhead histogram (Figure 4)
     fig5        execution overhead histogram (Figure 5)
     fig6        memory overhead histogram (Figure 6)
     fig7        average overheads (Figure 7)
     security    PoV outcomes per configuration (§IV-B, CFI)
     throughput  rewriter processing time vs binary size (§IV-A timings)
     ablation    placement strategies: naive vs optimized vs random (§III)
     pinning     pinned-address policy: conservative vs relaxed (§II-A2)
     jtrw        jump-table rewriting: statically modelled IBTs (§II-A2)
     defenses    every shipped defense compared on overhead + PoVs blocked
     micro       Bechamel micro-benchmarks, one per table/figure

   Run with no arguments to execute everything; or pass a subset of the
   experiment names. *)

module Histogram = Zipr_util.Histogram
module Stats = Zipr_util.Stats

let say fmt = Format.printf (fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Corpus evaluation shared by fig4-7 and security.                    *)
(* ------------------------------------------------------------------ *)

type cb_result = {
  name : string;
  null_eval : Cgc.Score.eval;
  cfi_eval : Cgc.Score.eval;
  null_stats : Zipr.Reassemble.stats;
  cfi_stats : Zipr.Reassemble.stats;
}

let corpus_results : cb_result list Lazy.t =
  lazy
    (let entries = Cgc.Corpus.build () in
     List.map
       (fun (e : Cgc.Corpus.entry) ->
         let orig = e.Cgc.Corpus.binary in
         let rn = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] orig in
         let rc = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] orig in
         let null_eval =
           Cgc.Score.evaluate ~name:e.Cgc.Corpus.name ~orig
             ~rewritten:rn.Zipr.Pipeline.rewritten ~meta:e.Cgc.Corpus.meta
             ~pollers:e.Cgc.Corpus.pollers
         in
         let cfi_eval =
           Cgc.Score.evaluate ~name:e.Cgc.Corpus.name ~orig
             ~rewritten:rc.Zipr.Pipeline.rewritten ~meta:e.Cgc.Corpus.meta
             ~pollers:e.Cgc.Corpus.pollers
         in
         {
           name = e.Cgc.Corpus.name;
           null_eval;
           cfi_eval;
           null_stats = rn.Zipr.Pipeline.stats;
           cfi_stats = rc.Zipr.Pipeline.stats;
         })
       entries)

let overhead_figure ~title ~metric () =
  let results = Lazy.force corpus_results in
  let h_null = Histogram.paper_bins () and h_cfi = Histogram.paper_bins () in
  List.iter
    (fun r ->
      Histogram.add h_null (metric r.null_eval);
      Histogram.add h_cfi (metric r.cfi_eval))
    results;
  print_string (Histogram.render h_null ~title:(title ^ " — baseline Zipr (Null transform)"));
  print_string (Histogram.render h_cfi ~title:(title ^ " — Zipr + CFI"))

let fig4 () =
  say "== Figure 4: histogram of file-size overhead (62 CBs) ==";
  overhead_figure ~title:"File-size overhead"
    ~metric:(fun e -> e.Cgc.Score.ov.Cgc.Score.size_pct)
    ();
  say "(paper: both configurations < 5%% for nearly all CBs, within the 20%% threshold)"

let fig5 () =
  say "== Figure 5: histogram of execution overhead (62 CBs) ==";
  overhead_figure ~title:"Execution overhead"
    ~metric:(fun e -> e.Cgc.Score.ov.Cgc.Score.exec_pct)
    ();
  say "(paper: vast majority within 5%%; CFI shifts several CBs into higher bins)"

let fig6 () =
  say "== Figure 6: histogram of memory (MaxRSS) overhead (62 CBs) ==";
  overhead_figure ~title:"Memory overhead"
    ~metric:(fun e -> e.Cgc.Score.ov.Cgc.Score.mem_pct)
    ();
  let results = Lazy.force corpus_results in
  let outlier =
    List.fold_left
      (fun acc r ->
        let m = r.cfi_eval.Cgc.Score.ov.Cgc.Score.mem_pct in
        match acc with Some (_, best) when best >= m -> acc | _ -> Some (r.name, m))
      None results
  in
  (match outlier with
  | Some (name, pct) -> say "worst CFI memory overhead: %s at %+.1f%%" name pct
  | None -> ());
  say "(paper: majority within 5%%; one pathological CB exceeded 50%% under CFI)"

let fig7 () =
  say "== Figure 7: average overheads across the corpus ==";
  let results = Lazy.force corpus_results in
  let avg metric evals = Stats.mean (List.map metric evals) in
  let nulls = List.map (fun r -> r.null_eval) results in
  let cfis = List.map (fun r -> r.cfi_eval) results in
  say "%-22s %12s %12s" "metric" "baseline" "zipr+CFI";
  say "%-22s %11.2f%% %11.2f%%" "file size"
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.size_pct) nulls)
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.size_pct) cfis);
  say "%-22s %11.2f%% %11.2f%%" "execution"
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.exec_pct) nulls)
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.exec_pct) cfis);
  say "%-22s %11.2f%% %11.2f%%" "memory"
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.mem_pct) nulls)
    (avg (fun e -> e.Cgc.Score.ov.Cgc.Score.mem_pct) cfis);
  say "(paper: low average overheads for all three metrics in both configurations)"

let security () =
  say "== Security: PoV outcomes (§IV-B) ==";
  let results = Lazy.force corpus_results in
  let count f = List.length (List.filter f results) in
  let n = List.length results in
  let entries = Cgc.Corpus.build () in
  let pov_kinds =
    List.concat_map (fun (e : Cgc.Corpus.entry) -> Cgc.Pov.povs e.Cgc.Corpus.meta) entries
    |> List.map fst
  in
  let kind_count k = List.length (List.filter (( = ) k) pov_kinds) in
  say "corpus: %d CBs; %d PoVs (%d return hijacks, %d function-pointer hijacks)" n
    (List.length pov_kinds)
    (kind_count "stack-overflow")
    (kind_count "fptr-overwrite");
  say "original / Null-rewritten: exploited on %d/%d (PoV must still work: rewriting alone is not a defense)"
    (count (fun r -> r.null_eval.Cgc.Score.pov_blocked = Some false))
    n;
  say "Zipr + CFI: blocked on %d/%d"
    (count (fun r -> r.cfi_eval.Cgc.Score.pov_blocked = Some true))
    n;
  let avg_score evals = Stats.mean (List.map Cgc.Score.total evals) in
  say "mean CFE-style score: baseline %.3f, zipr+CFI %.3f"
    (avg_score (List.map (fun r -> r.null_eval) results))
    (avg_score (List.map (fun r -> r.cfi_eval) results));
  say "poller functionality: baseline %d/%d CBs fully passing, CFI %d/%d"
    (count (fun r -> r.null_eval.Cgc.Score.functionality = 1.0))
    n
    (count (fun r -> r.cfi_eval.Cgc.Score.functionality = 1.0))
    n

(* ------------------------------------------------------------------ *)
(* E1: robustness (§IV-A)                                              *)
(* ------------------------------------------------------------------ *)

let e1 () =
  say "== E1: robustness — Null transform on large workloads (§IV-A) ==";
  say "%-18s %10s %10s %12s %12s %10s" "workload" "text(B)" "file(B)" "rewrite(s)" "tests" "size ovh";
  List.iter
    (fun (w : Workloads.Synthetic.spec) ->
      let orig = w.Workloads.Synthetic.binary in
      let t0 = Unix.gettimeofday () in
      let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] orig in
      let dt = Unix.gettimeofday () -. t0 in
      let chk =
        Cgc.Poller.functional_check ~orig ~rewritten:r.Zipr.Pipeline.rewritten
          w.Workloads.Synthetic.test_suite
      in
      let size_ov =
        Stats.overhead_pct
          ~baseline:(float_of_int (Zelf.Binary.file_size orig))
          ~measured:(float_of_int (Zelf.Binary.file_size r.Zipr.Pipeline.rewritten))
      in
      say "%-18s %10d %10d %12.3f %8d/%d %+9.1f%%" w.Workloads.Synthetic.name
        (Zelf.Binary.text orig).Zelf.Section.size
        (Zelf.Binary.file_size orig) dt chk.Cgc.Poller.passed chk.Cgc.Poller.total size_ov)
    (Workloads.Synthetic.all ());
  say "(paper: rewritten libc passed its full unit-test suite; libjvm and Apache showed no failures)"

(* ------------------------------------------------------------------ *)
(* Throughput (§IV-A timings)                                          *)
(* ------------------------------------------------------------------ *)

(* [--json] makes throughput also write BENCH_throughput.json (per-workload
   timings, dollop counts and allocator traffic) for CI trend tracking;
   [--small] drops the 5x jvm-like workload so the smoke run stays cheap;
   [--jobs N] sets the worker-domain count for the corpus section (0 =
   auto-detect the core count);
   [--trace] installs an obs sink for the whole run — the aggregated
   per-phase table prints at the end, and with [--json] the report embeds
   into BENCH_throughput.json under the "obs" key. *)
let json_mode = ref false
let small_mode = ref false
let jobs = ref 1
let clients = ref 4
let trace_mode = ref false

(* Host facts embedded in every BENCH_*.json: timing figures are only
   comparable between runs on a known substrate, so each report records
   the core count, compiler and corpus size it was measured with. *)
let host_json ~corpus_size =
  Printf.sprintf
    "\"host\": { \"cores\": %d, \"ocaml_version\": \"%s\", \"corpus_size\": %d }"
    (Domain.recommended_domain_count ())
    (Obs.Tracer.json_escape Sys.ocaml_version)
    corpus_size

(* Distribution summary (nearest-rank percentiles) — the migrated
   benches report p50/p90/max rather than bare means. *)
let dist_json xs =
  Printf.sprintf "{ \"p50\": %.4f, \"p90\": %.4f, \"max\": %.4f }"
    (Stats.percentile xs 50.0) (Stats.percentile xs 90.0) (Stats.percentile xs 100.0)

(* The corpus section of the throughput experiment: the scale-out corpus
   (the same deterministic class mix the placement bench draws from, at
   least 120 members) rewritten through [Parallel.Corpus].

   A serial admission pass runs first: the few corpus members the
   pipeline itself cannot rewrite (a pin slot colliding with a fixed
   data island — a strategy- and config-independent verdict, see the
   placement bench) are excluded from every measured pass and accounted
   for in the JSON; more than 2% failing means the generator regressed,
   so the run aborts.

   [speedup_vs_serial] is the {e schedule} speedup: the serial run's
   wall-clock divided by the parallel schedule's critical path, where the
   critical path charges each shard the serially-measured durations of
   the binaries it processed.  On a machine with at least [jobs] cores
   this equals the wall-clock speedup (minus queue overhead); on fewer
   cores — CI runners are often single-core — the domains time-share and
   raw wall-clock measures the scheduler, not the rewriter, so we report
   both and label them. *)
let corpus_section () =
  let count = if !small_mode then 120 else 360 in
  let corpus = Workloads.Scale.corpus ~seed:9 ~count () in
  let all_items =
    List.map
      (fun (it : Workloads.Scale.item) ->
        {
          Parallel.Corpus.name = it.Workloads.Scale.name;
          data = Zelf.Binary.serialize it.Workloads.Scale.binary;
        })
      corpus
  in
  let corpus_seed = 7 in
  let transforms = [ Transforms.Null.transform ] in
  let config = Zipr.Pipeline.default_config in
  let jobs_resolved = Zipr.Pipeline.resolve_jobs !jobs in
  let probe = Parallel.Corpus.rewrite_all ~jobs:1 ~config ~transforms ~corpus_seed all_items in
  let excluded =
    List.filter_map
      (fun (e : Parallel.Corpus.entry) ->
        match e.Parallel.Corpus.result with
        | Error m -> Some (e.Parallel.Corpus.name, m)
        | Ok _ -> None)
      probe.Parallel.Corpus.entries
  in
  List.iter (fun (n, m) -> say "excluded (unsupported) %s: %s" n m) excluded;
  if 100 * List.length excluded > 2 * count then
    failwith
      (Printf.sprintf "throughput: %d/%d unsupported corpus members exceeds the 2%% tolerance"
         (List.length excluded) count);
  let items =
    List.filter
      (fun (it : Parallel.Corpus.item) ->
        not (List.mem_assoc it.Parallel.Corpus.name excluded))
      all_items
  in
  let serial = Parallel.Corpus.rewrite_all ~jobs:1 ~config ~transforms ~corpus_seed items in
  let par =
    if jobs_resolved <= 1 then serial
    else Parallel.Corpus.rewrite_all ~jobs:jobs_resolved ~config ~transforms ~corpus_seed items
  in
  (* Critical path of the parallel schedule, charged at serial prices. *)
  let serial_elapsed =
    let a = Array.make (List.length items) 0.0 in
    List.iter (fun (e : Parallel.Corpus.entry) -> a.(e.index) <- e.elapsed_s) serial.entries;
    a
  in
  let per_shard = Hashtbl.create 8 in
  List.iter
    (fun (e : Parallel.Corpus.entry) ->
      let cur = try Hashtbl.find per_shard e.worker with Not_found -> 0.0 in
      Hashtbl.replace per_shard e.worker (cur +. serial_elapsed.(e.index)))
    par.entries;
  let critical_path_s = Hashtbl.fold (fun _ s acc -> max s acc) per_shard 0.0 in
  let speedup =
    if jobs_resolved <= 1 || critical_path_s <= 0.0 then 1.0
    else serial.wall_clock_s /. critical_path_s
  in
  let identical =
    List.for_all2
      (fun (a : Parallel.Corpus.entry) (b : Parallel.Corpus.entry) ->
        match (a.result, b.result) with
        | Ok x, Ok y -> Bytes.equal x.rewritten y.rewritten
        | Error x, Error y -> x = y
        | _ -> false)
      serial.entries par.entries
  in
  say "-- corpus: %d binaries (%d generated, %d unsupported), %d worker domain(s) --"
    (List.length items) count (List.length excluded) jobs_resolved;
  Format.printf "%a@." Parallel.Corpus.pp_report par;
  let elapsed_ms =
    List.map (fun (e : Parallel.Corpus.entry) -> e.Parallel.Corpus.elapsed_s *. 1e3)
      serial.Parallel.Corpus.entries
  in
  let queue_wait_ms =
    List.map (fun (e : Parallel.Corpus.entry) -> e.Parallel.Corpus.queue_wait_s *. 1e3)
      par.Parallel.Corpus.entries
  in
  say "per-item elapsed      p50 %.3f ms  p90 %.3f ms  max %.3f ms"
    (Stats.percentile elapsed_ms 50.0) (Stats.percentile elapsed_ms 90.0)
    (Stats.percentile elapsed_ms 100.0);
  say "queue wait            p50 %.3f ms  p90 %.3f ms  max %.3f ms"
    (Stats.percentile queue_wait_ms 50.0) (Stats.percentile queue_wait_ms 90.0)
    (Stats.percentile queue_wait_ms 100.0);
  say "serial wall clock     %10.4f s" serial.wall_clock_s;
  say "parallel wall clock   %10.4f s  (measured on this machine's cores)"
    par.Parallel.Corpus.wall_clock_s;
  say "critical path         %10.4f s  (parallel schedule at serial per-binary cost)"
    critical_path_s;
  say "speedup vs serial     %10.2fx  (schedule speedup = serial wall clock / critical path)"
    speedup;
  say "outputs vs serial     %s" (if identical then "byte-identical" else "DIVERGED");
  if not identical then failwith "corpus outputs diverged between serial and parallel runs";
  (* IR cache: a cold pass populates it (all misses), a warm pass at the
     configured job count must then hit on every item and still produce
     byte-identical outputs. *)
  let ir_cache = Irdb.Cache.create ~capacity:(2 * List.length items) () in
  let cold = Parallel.Corpus.rewrite_all ~jobs:1 ~config ~transforms ~ir_cache ~corpus_seed items in
  let warm =
    Parallel.Corpus.rewrite_all ~jobs:jobs_resolved ~config ~transforms ~ir_cache ~corpus_seed
      items
  in
  let cache_identical =
    List.for_all2
      (fun (a : Parallel.Corpus.entry) (b : Parallel.Corpus.entry) ->
        match (a.result, b.result) with
        | Ok x, Ok y -> Bytes.equal x.rewritten y.rewritten
        | Error x, Error y -> x = y
        | _ -> false)
      serial.entries warm.entries
  in
  say "ir cache cold         %10.4f s IR, %d misses" cold.merged_timing.ir_construction_s
    cold.merged_cache.Zipr.Pipeline.ir_cache_misses;
  say "ir cache warm         %10.4f s IR, %d hits (at --jobs %d)"
    warm.merged_timing.ir_construction_s warm.merged_cache.Zipr.Pipeline.ir_cache_hits
    jobs_resolved;
  say "warm outputs          %s" (if cache_identical then "byte-identical" else "DIVERGED");
  if warm.merged_cache.Zipr.Pipeline.ir_cache_hits <> List.length items then
    failwith "warm cache run did not hit on every corpus item";
  if not cache_identical then failwith "warm cache outputs diverged from uncached run";
  ( serial,
    par,
    cold,
    warm,
    critical_path_s,
    speedup,
    List.length items,
    count,
    List.map fst excluded,
    jobs_resolved,
    elapsed_ms,
    queue_wait_ms )

let throughput () =
  say "== Throughput: rewriter processing time vs binary size (§IV-A) ==";
  say "%-18s %10s %14s %14s %14s %8s %8s" "workload" "text(B)" "IR constr(s)" "transform(s)"
    "reassembly(s)" "dollops" "queries";
  let specs =
    if !small_mode then Workloads.Synthetic.[ libc_like (); apache_like () ]
    else Workloads.Synthetic.all ()
  in
  let rows =
    List.map
      (fun (w : Workloads.Synthetic.spec) ->
        let r =
          Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ]
            w.Workloads.Synthetic.binary
        in
        let t = r.Zipr.Pipeline.timing in
        let s = r.Zipr.Pipeline.stats in
        let text_bytes = (Zelf.Binary.text w.Workloads.Synthetic.binary).Zelf.Section.size in
        say "%-18s %10d %14.4f %14.4f %14.4f %8d %8d" w.Workloads.Synthetic.name text_bytes
          t.Zipr.Pipeline.ir_construction_s t.Zipr.Pipeline.transformation_s
          t.Zipr.Pipeline.reassembly_s s.Zipr.Reassemble.dollops_placed
          s.Zipr.Reassemble.alloc_queries;
        (w.Workloads.Synthetic.name, text_bytes, t, s))
      specs
  in
  let ( serial,
        par,
        cold,
        warm,
        critical_path_s,
        speedup,
        n_items,
        n_generated,
        excluded_names,
        jobs_resolved,
        elapsed_ms,
        queue_wait_ms ) =
    corpus_section ()
  in
  if !json_mode then begin
    let oc = open_out "BENCH_throughput.json" in
    let field fmt = Printf.fprintf oc fmt in
    field "{\n  \"experiment\": \"throughput\",\n  \"workloads\": [";
    List.iteri
      (fun i (name, text_bytes, (t : Zipr.Pipeline.timing), (s : Zipr.Reassemble.stats)) ->
        field "%s\n    { \"name\": \"%s\", \"text_bytes\": %d,\n"
          (if i = 0 then "" else ",")
          (Obs.Tracer.json_escape name) text_bytes;
        field "      \"ir_construction_s\": %.6f, \"transformation_s\": %.6f, \"reassembly_s\": %.6f,\n"
          t.Zipr.Pipeline.ir_construction_s t.Zipr.Pipeline.transformation_s
          t.Zipr.Pipeline.reassembly_s;
        field "      \"dollops_placed\": %d, \"dollops_split\": %d,\n"
          s.Zipr.Reassemble.dollops_placed s.Zipr.Reassemble.dollops_split;
        field "      \"layouts_computed\": %d, \"layout_reuses\": %d,\n"
          s.Zipr.Reassemble.layouts_computed s.Zipr.Reassemble.layout_reuses;
        field "      \"alloc_queries\": %d, \"alloc_hits\": %d }" s.Zipr.Reassemble.alloc_queries
          s.Zipr.Reassemble.alloc_hits)
      rows;
    field "\n  ],\n";
    field "  \"jobs\": %d,\n  \"corpus_items\": %d,\n" jobs_resolved n_items;
    field "  \"corpus_generated\": %d,\n  \"corpus_excluded\": [%s],\n" n_generated
      (String.concat ", "
         (List.map
            (fun n -> Printf.sprintf "\"%s\"" (Obs.Tracer.json_escape n))
            excluded_names));
    field "  \"elapsed_ms\": %s,\n  \"queue_wait_ms\": %s,\n" (dist_json elapsed_ms)
      (dist_json queue_wait_ms);
    field "  %s,\n" (host_json ~corpus_size:n_generated);
    field "  \"serial_wall_clock_s\": %.6f,\n  \"wall_clock_s\": %.6f,\n"
      serial.Parallel.Corpus.wall_clock_s par.Parallel.Corpus.wall_clock_s;
    field "  \"critical_path_s\": %.6f,\n  \"speedup_vs_serial\": %.3f,\n" critical_path_s
      speedup;
    field "  \"pool_spawn_s\": %.6f,\n" par.Parallel.Corpus.pool_spawn_s;
    field "  \"ir_cache_hits\": %d,\n  \"ir_cache_misses\": %d,\n"
      warm.Parallel.Corpus.merged_cache.Zipr.Pipeline.ir_cache_hits
      (cold.Parallel.Corpus.merged_cache.Zipr.Pipeline.ir_cache_misses
      + warm.Parallel.Corpus.merged_cache.Zipr.Pipeline.ir_cache_misses);
    field "  \"ir_cold_s\": %.6f,\n  \"ir_warm_s\": %.6f,\n"
      cold.Parallel.Corpus.merged_timing.Zipr.Pipeline.ir_construction_s
      warm.Parallel.Corpus.merged_timing.Zipr.Pipeline.ir_construction_s;
    let ms = par.Parallel.Corpus.merged_stats in
    field "  \"corpus\": {\n    \"ok\": %d, \"failed\": %d,\n" par.Parallel.Corpus.ok
      par.Parallel.Corpus.failed;
    field "    \"queue_wait_total_s\": %.6f, \"queue_wait_max_s\": %.6f,\n"
      par.Parallel.Corpus.queue_wait_total_s par.Parallel.Corpus.queue_wait_max_s;
    field "    \"merged\": { \"dollops_placed\": %d, \"dollops_split\": %d, \"layouts_computed\": %d, \"layout_reuses\": %d, \"alloc_queries\": %d, \"alloc_hits\": %d },\n"
      ms.Zipr.Reassemble.dollops_placed ms.Zipr.Reassemble.dollops_split
      ms.Zipr.Reassemble.layouts_computed ms.Zipr.Reassemble.layout_reuses
      ms.Zipr.Reassemble.alloc_queries ms.Zipr.Reassemble.alloc_hits;
    field "    \"shards\": [";
    List.iteri
      (fun i (w : Parallel.Pool.worker_stat) ->
        field "%s\n      { \"worker\": %d, \"tasks_run\": %d, \"busy_s\": %.6f }"
          (if i = 0 then "" else ",")
          w.Parallel.Pool.worker w.Parallel.Pool.tasks_run w.Parallel.Pool.busy_s)
      par.Parallel.Corpus.shards;
    field "\n    ]\n  }";
    (match Obs.active () with
    | Some sink ->
        (* [report_json] is itself a JSON object; embed it verbatim. *)
        field ",\n  \"obs\": %s" (String.trim (Obs.Tracer.report_json sink))
    | None -> ());
    field "\n}\n";
    close_out oc;
    say "wrote BENCH_throughput.json (%d workloads, corpus of %d at --jobs %d)"
      (List.length rows) n_items jobs_resolved
  end;
  say "(paper: libc 1.6MB in under 6 min; libjvm 12MB in under 58 min; Apache 624K in 71 s —";
  say " i.e. roughly linear in binary size, which the rows above should reproduce in shape)"

(* ------------------------------------------------------------------ *)
(* Alloc: free-space index microbenchmark                              *)
(* ------------------------------------------------------------------ *)

(* Direct evidence for the allocator rework: the augmented-tree
   Interval_set vs a naive sorted-list reference (the shape of the old
   implementation) on the three positional queries placement actually
   issues.  The workload binaries are small enough that end-to-end
   timings only hint at the asymptotic gap; this measures it. *)
let alloc () =
  say "== Alloc: free-space index — augmented tree vs linear scan ==";
  let module Iset = Zipr_util.Interval_set in
  let gaps n =
    (* Deterministic, disjoint, non-adjacent, varied widths. *)
    List.init n (fun i ->
        let lo = i * 96 in
        (lo, lo + 16 + (i * 7919 mod 48)))
  in
  (* Naive reference: ascending (lo, hi) list, linear scans throughout. *)
  let nv_first_fit l ~size = List.find_opt (fun (lo, hi) -> hi - lo >= size) l in
  let nv_fit_in_window l ~lo ~hi ~size =
    List.find_map
      (fun (glo, ghi) ->
        let a = max glo lo and b = min ghi hi in
        if b - a >= size then Some a else None)
      l
  in
  let nv_best_fit_near l ~center ~size =
    List.fold_left
      (fun best (glo, ghi) ->
        if ghi - glo < size then best
        else
          let a = max glo (min center (ghi - size)) in
          let d = abs (a - center) in
          match best with Some (_, bd) when bd <= d -> best | _ -> Some (a, d))
      None l
    |> Option.map fst
  in
  let time f =
    let reps = 2000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  in
  say "%8s %-16s %12s %12s %9s" "gaps" "query" "tree(ns)" "scan(ns)" "speedup";
  List.iter
    (fun n ->
      let l = gaps n in
      let t = List.fold_left (fun s (lo, hi) -> Iset.add s ~lo ~hi) Iset.empty l in
      let span = n * 96 in
      (* 64 never fits (widths cap at 63): the "any gap big enough?" probe
         that decides overflow spill, worst-case for a scan. *)
      let sizes = [| 8; 17; 33; 48; 61; 64 |] in
      let probe i = sizes.(i mod Array.length sizes) in
      let queries =
        [
          ( "first_fit",
            (fun i -> ignore (Iset.first_fit t ~size:(probe i))),
            fun i -> ignore (nv_first_fit l ~size:(probe i)) );
          ( "fit_in_window",
            (fun i ->
              let lo = i * 131 mod span in
              ignore (Iset.fit_in_window t ~lo ~hi:(lo + 4096) ~size:(probe i))),
            fun i ->
              let lo = i * 131 mod span in
              ignore (nv_fit_in_window l ~lo ~hi:(lo + 4096) ~size:(probe i)) );
          ( "best_fit_near",
            (fun i -> ignore (Iset.best_fit_near t ~center:(i * 257 mod span) ~size:(probe i))),
            fun i -> ignore (nv_best_fit_near l ~center:(i * 257 mod span) ~size:(probe i)) );
        ]
      in
      List.iter
        (fun (qname, tree_q, scan_q) ->
          let i = ref 0 in
          let tree_ns = time (fun () -> incr i; tree_q !i) in
          let scan_ns = time (fun () -> incr i; scan_q !i) in
          say "%8d %-16s %12.0f %12.0f %8.1fx" n qname tree_ns scan_ns (scan_ns /. tree_ns))
        queries)
    [ 256; 2048; 16384 ];
  say "(linear scans grow with the gap count; the augmented tree stays logarithmic, which is";
  say " what keeps placement cost flat as fragmentation shatters the text span)"

(* ------------------------------------------------------------------ *)
(* Ablation: placement strategies (§III)                               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  say "== Ablation: placement strategy (naive / optimized / random), 16 CBs ==";
  let entries = Cgc.Corpus.build ~n:16 () in
  say "%-11s %12s %12s %12s %10s %8s %8s" "strategy" "size ovh" "exec ovh" "mem ovh" "colocated"
    "chains" "overflow";
  List.iter
    (fun (sname, strategy) ->
      let sizes = ref [] and execs = ref [] and mems = ref [] in
      let colocated = ref 0 and chains = ref 0 and overflow = ref 0 in
      List.iter
        (fun (e : Cgc.Corpus.entry) ->
          let orig = e.Cgc.Corpus.binary in
          let config =
            { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = strategy }
          in
          let r = Zipr.Pipeline.rewrite ~config ~transforms:[ Transforms.Null.transform ] orig in
          let ov =
            Cgc.Score.overheads ~orig ~rewritten:r.Zipr.Pipeline.rewritten
              e.Cgc.Corpus.pollers
          in
          sizes := ov.Cgc.Score.size_pct :: !sizes;
          execs := ov.Cgc.Score.exec_pct :: !execs;
          mems := ov.Cgc.Score.mem_pct :: !mems;
          colocated := !colocated + r.Zipr.Pipeline.stats.Zipr.Reassemble.pins_colocated;
          chains := !chains + r.Zipr.Pipeline.stats.Zipr.Reassemble.chain_hops;
          overflow := !overflow + r.Zipr.Pipeline.stats.Zipr.Reassemble.overflow_bytes)
        entries;
      say "%-11s %+11.2f%% %+11.2f%% %+11.2f%% %10d %8d %8d" sname (Stats.mean !sizes)
        (Stats.mean !execs) (Stats.mean !mems) !colocated !chains !overflow)
    [
      ("naive", Zipr.Placement.naive);
      ("optimized", Zipr.Placement.optimized);
      ("random", Zipr.Placement.random);
    ];
  say "(§III: the optimized layout trades layout diversity for space/memory efficiency;";
  say " naive and random spill more code and keep fewer pins colocated)"

(* ------------------------------------------------------------------ *)
(* Ablation 2: pinned-address policy (the |P - B| trade-off of II-A2)  *)
(* ------------------------------------------------------------------ *)

let pinning () =
  say "== Ablation: pinning policy — conservative (after-call pins) vs relaxed, 16 CBs ==";
  let entries = Cgc.Corpus.build ~n:16 () in
  say "%-14s %8s %12s %12s %10s" "policy" "|P|" "size ovh" "exec ovh" "func";
  List.iter
    (fun (pname, pin_config) ->
      let pins = ref 0 and sizes = ref [] and execs = ref [] in
      let passed = ref 0 and total = ref 0 in
      List.iter
        (fun (e : Cgc.Corpus.entry) ->
          let orig = e.Cgc.Corpus.binary in
          let config = { Zipr.Pipeline.default_config with Zipr.Pipeline.pin_config } in
          let r = Zipr.Pipeline.rewrite ~config ~transforms:[ Transforms.Null.transform ] orig in
          pins := !pins + r.Zipr.Pipeline.stats.Zipr.Reassemble.pins_total;
          let ov = Cgc.Score.overheads ~orig ~rewritten:r.Zipr.Pipeline.rewritten e.Cgc.Corpus.pollers in
          sizes := ov.Cgc.Score.size_pct :: !sizes;
          execs := ov.Cgc.Score.exec_pct :: !execs;
          let chk =
            Cgc.Poller.functional_check ~orig ~rewritten:r.Zipr.Pipeline.rewritten
              e.Cgc.Corpus.pollers
          in
          passed := !passed + chk.Cgc.Poller.passed;
          total := !total + chk.Cgc.Poller.total)
        entries;
      say "%-14s %8d %+11.2f%% %+11.2f%% %6d/%d" pname !pins (Stats.mean !sizes)
        (Stats.mean !execs) !passed !total)
    [
      ("conservative", { Analysis.Ibt.pin_after_calls = true });
      ("relaxed", { Analysis.Ibt.pin_after_calls = false });
    ];
  say "(II-A2: a larger P is always safe but less space-efficient; after-call pins are the";
  say " bulk of |P - B| and dropping them assumes no code computes on return addresses)"

(* ------------------------------------------------------------------ *)
(* Ablation 3: jump-table rewriting (statically modelled IBTs, II-A2)  *)
(* ------------------------------------------------------------------ *)

let jtrw () =
  say "== Ablation: jump-table rewriting (statically modelled IBTs), 16 CBs ==";
  let entries = Cgc.Corpus.build ~n:16 () in
  say "%-22s %12s %12s %10s" "configuration" "exec ovh" "size ovh" "func";
  List.iter
    (fun (cname, transforms) ->
      let sizes = ref [] and execs = ref [] in
      let passed = ref 0 and total = ref 0 in
      List.iter
        (fun (e : Cgc.Corpus.entry) ->
          let orig = e.Cgc.Corpus.binary in
          let r = Zipr.Pipeline.rewrite ~transforms orig in
          let ov = Cgc.Score.overheads ~orig ~rewritten:r.Zipr.Pipeline.rewritten e.Cgc.Corpus.pollers in
          sizes := ov.Cgc.Score.size_pct :: !sizes;
          execs := ov.Cgc.Score.exec_pct :: !execs;
          let chk =
            Cgc.Poller.functional_check ~orig ~rewritten:r.Zipr.Pipeline.rewritten
              e.Cgc.Corpus.pollers
          in
          passed := !passed + chk.Cgc.Poller.passed;
          total := !total + chk.Cgc.Poller.total)
        entries;
      say "%-22s %+11.2f%% %+11.2f%% %6d/%d" cname (Stats.mean !execs) (Stats.mean !sizes)
        !passed !total)
    [
      ("null", [ Transforms.Null.transform ]);
      ("jumptable-rewrite", [ Transforms.Jumptable_rewrite.transform ]);
      ("cfi", [ Transforms.Cfi.transform ]);
      ("jt-rewrite + cfi", [ Transforms.Jumptable_rewrite.transform; Transforms.Cfi.transform ]);
    ];
  say "(II-A2: IBTs whose behaviour is statically modelled need no pin indirection; the";
  say " rewritten tables follow their targets via relocations)"

(* ------------------------------------------------------------------ *)
(* Defense comparison: the paper's §IV-B closing list, evaluated        *)
(* ------------------------------------------------------------------ *)

let defenses () =
  say "== Defense comparison (§IV-B: the transforms the paper applied but could not evaluate), 16 CBs ==";
  let entries = Cgc.Corpus.build ~n:16 () in
  say "%-24s %10s %10s %10s %8s %14s" "defense" "size ovh" "exec ovh" "mem ovh" "func" "PoVs blocked";
  List.iter
    (fun (dname, transforms) ->
      let sizes = ref [] and execs = ref [] and mems = ref [] in
      let passed = ref 0 and total = ref 0 in
      let blocked = ref 0 and povs = ref 0 in
      List.iter
        (fun (e : Cgc.Corpus.entry) ->
          let orig = e.Cgc.Corpus.binary in
          let r = Zipr.Pipeline.rewrite ~transforms orig in
          let rw = r.Zipr.Pipeline.rewritten in
          let ov = Cgc.Score.overheads ~orig ~rewritten:rw e.Cgc.Corpus.pollers in
          sizes := ov.Cgc.Score.size_pct :: !sizes;
          execs := ov.Cgc.Score.exec_pct :: !execs;
          mems := ov.Cgc.Score.mem_pct :: !mems;
          let chk = Cgc.Poller.functional_check ~orig ~rewritten:rw e.Cgc.Corpus.pollers in
          passed := !passed + chk.Cgc.Poller.passed;
          total := !total + chk.Cgc.Poller.total;
          List.iter
            (fun (_, o) ->
              incr povs;
              if o <> Cgc.Pov.Exploited then incr blocked)
            (Cgc.Pov.attempt_all rw e.Cgc.Corpus.meta))
        entries;
      say "%-24s %+9.1f%% %+9.1f%% %+9.1f%% %4d/%d %10d/%d" dname (Stats.mean !sizes)
        (Stats.mean !execs) (Stats.mean !mems) !passed !total !blocked !povs)
    [
      ("null (baseline)", [ Transforms.Null.transform ]);
      ("cfi", [ Transforms.Cfi.transform ]);
      ("canary", [ Transforms.Canary.transform ]);
      ("stack-pad", [ Transforms.Stack_pad.transform ]);
      ("shadow-stack", [ Transforms.Shadow_stack.transform ]);
      ("stirring+nop-pad", [ Transforms.Stirring.transform; Transforms.Nop_pad.transform ]);
      ( "cfi+shadow-stack",
        [ Transforms.Shadow_stack.transform; Transforms.Cfi.transform ] );
    ];
  say "(the paper lists stack randomization, canary randomization and code mixing as applied";
  say " with Zipr but unevaluated for space; stack-pad blocks the fixed-offset PoV only by";
  say " displacement, and pure-diversity transforms block nothing — defense in depth matters)"

(* ------------------------------------------------------------------ *)
(* Serve: the rewriting daemon under concurrent load                   *)
(* ------------------------------------------------------------------ *)

(* An in-process load test of the serve subsystem: start a daemon on a
   Unix socket, hammer it from [--clients N] client domains, and report
   latency percentiles, throughput, shared-IR-cache effectiveness and
   overload behaviour.  Always writes BENCH_serve.json — the serve
   analog of BENCH_throughput.json; its fields are documented in the
   README's "Serving" section. *)
let serve_bench () =
  say "== Serve: daemon latency/throughput under %d concurrent clients ==" !clients;
  let sock_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zipr-bench-%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.jobs = Zipr.Pipeline.resolve_jobs !jobs;
      queue_bound = max 4 (2 * !clients);
    }
  in
  let server =
    Serve.Server.create ~config ~resolve_transform:Transforms.Registry.by_name
      (Serve.Protocol.Unix_path sock_path)
  in
  let addr = Serve.Server.address server in
  let server_domain = Domain.spawn (fun () -> Serve.Server.serve server) in
  (* The request mix: the scale-out corpus — distinct binaries (cache
     misses on first touch) revisited by every client (hits thereafter).
     The handful of members the pipeline cannot rewrite (pin slot vs
     fixed island, see the placement bench) are filtered out offline so
     every served request is expected to succeed. *)
  let corpus_generated = 128 in
  let corpus = Workloads.Scale.corpus ~seed:17 ~count:corpus_generated () in
  let inputs =
    List.filter_map
      (fun (it : Workloads.Scale.item) ->
        let binary = it.Workloads.Scale.binary in
        match Zipr.Pipeline.try_rewrite ~transforms:[ Transforms.Null.transform ] binary with
        | Ok _ -> Some (Bytes.unsafe_to_string (Zelf.Binary.serialize binary))
        | Error _ -> None)
      corpus
    |> Array.of_list
  in
  if Array.length inputs < 120 then
    failwith
      (Printf.sprintf "serve bench: only %d/%d supported corpus members (need >= 120)"
         (Array.length inputs) corpus_generated);
  let per_client = if !small_mode then 8 else 24 in
  (* Warm the IR cache so the measured section exercises the steady
     state; the misses recorded below are these first touches. *)
  Array.iter
    (fun data ->
      match Serve.Client.rewrite ~options:Zipr.Options.default addr data with
      | Ok { Serve.Protocol.Response.status = Serve.Protocol.Ok_; _ } -> ()
      | Ok r ->
          failwith
            (Printf.sprintf "serve bench: warmup rejected: %s: %s"
               (Serve.Protocol.status_to_string r.Serve.Protocol.Response.status)
               r.Serve.Protocol.Response.message)
      | Error msg -> failwith ("serve bench: warmup failed: " ^ msg))
    inputs;
  let t0 = Unix.gettimeofday () in
  let run_client c =
    let lat = ref [] and ok = ref 0 and rejects = ref 0 and errors = ref 0 in
    for i = 0 to per_client - 1 do
      let data = inputs.(((c * per_client) + i) mod Array.length inputs) in
      let r0 = Unix.gettimeofday () in
      (match
         Serve.Client.rewrite
           ~id:(Int64.of_int ((c * 1_000_000) + i))
           ~options:Zipr.Options.default addr data
       with
      | Ok { Serve.Protocol.Response.status = Serve.Protocol.Ok_; _ } ->
          incr ok;
          lat := (Unix.gettimeofday () -. r0) *. 1e3 :: !lat
      | Ok { Serve.Protocol.Response.status = Serve.Protocol.Overloaded; _ } -> incr rejects
      | Ok _ | Error _ -> incr errors)
    done;
    (!lat, !ok, !rejects, !errors)
  in
  let domains = List.init !clients (fun c -> Domain.spawn (fun () -> run_client c)) in
  let results = List.map Domain.join domains in
  let wall = Unix.gettimeofday () -. t0 in
  Serve.Server.stop server;
  Domain.join server_domain;
  let lats = List.concat_map (fun (l, _, _, _) -> l) results in
  let ok = List.fold_left (fun a (_, o, _, _) -> a + o) 0 results in
  let rejects = List.fold_left (fun a (_, _, r, _) -> a + r) 0 results in
  let errors = List.fold_left (fun a (_, _, _, e) -> a + e) 0 results in
  let total = !clients * per_client in
  let s = Serve.Server.stats server in
  let cache_lookups = s.Serve.Server.cache_hits + s.Serve.Server.cache_misses in
  let hit_rate =
    if cache_lookups = 0 then 0.0
    else float_of_int s.Serve.Server.cache_hits /. float_of_int cache_lookups
  in
  let p50 = Stats.percentile lats 50.0
  and p90 = Stats.percentile lats 90.0
  and p99 = Stats.percentile lats 99.0 in
  let lmax = List.fold_left max 0.0 lats in
  say "corpus                %10d  members (%d generated)" (Array.length inputs)
    corpus_generated;
  say "requests              %10d  (%d ok, %d overloaded, %d errors)" total ok rejects errors;
  say "wall clock            %10.4f s  (%.1f req/s)" wall (float_of_int ok /. wall);
  say "latency p50           %10.2f ms" p50;
  say "latency p90           %10.2f ms" p90;
  say "latency p99           %10.2f ms" p99;
  say "latency max           %10.2f ms" lmax;
  say "ir cache              %10d hits / %d misses (%.0f%% hit rate)" s.Serve.Server.cache_hits
    s.Serve.Server.cache_misses (hit_rate *. 100.0);
  say "queue high water      %10d  (bound %d)" s.Serve.Server.queue_high_water
    s.Serve.Server.queue_bound;
  if errors > 0 then failwith "serve bench: unexpected request errors";
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"serve\",\n\
    \  \"clients\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"corpus_generated\": %d,\n\
    \  \"corpus_members\": %d,\n\
    \  %s,\n\
    \  \"requests_total\": %d,\n\
    \  \"ok\": %d,\n\
    \  \"overloaded_rejects\": %d,\n\
    \  \"errors\": %d,\n\
    \  \"wall_clock_s\": %.6f,\n\
    \  \"requests_per_s\": %.3f,\n\
    \  \"latency_ms\": %s,\n\
    \  \"latency_p50_ms\": %.3f,\n\
    \  \"latency_p90_ms\": %.3f,\n\
    \  \"latency_p99_ms\": %.3f,\n\
    \  \"latency_max_ms\": %.3f,\n\
    \  \"cache_hits\": %d,\n\
    \  \"cache_misses\": %d,\n\
    \  \"cache_hit_rate\": %.4f,\n\
    \  \"cache_resident_bytes\": %d,\n\
    \  \"cache_evictions\": %d,\n\
    \  \"queue_bound\": %d,\n\
    \  \"queue_high_water\": %d\n\
     }\n"
    !clients config.Serve.Server.jobs corpus_generated (Array.length inputs)
    (host_json ~corpus_size:(Array.length inputs))
    total ok rejects errors wall
    (float_of_int ok /. wall)
    (dist_json lats) p50 p90 p99 lmax s.Serve.Server.cache_hits s.Serve.Server.cache_misses
    hit_rate s.Serve.Server.cache_resident_bytes s.Serve.Server.cache_evictions
    s.Serve.Server.queue_bound s.Serve.Server.queue_high_water;
  close_out oc;
  say "wrote BENCH_serve.json (%d clients at --jobs %d)" !clients config.Serve.Server.jobs

(* ------------------------------------------------------------------ *)
(* Delta: warm IR over a versioned corpus                             *)
(* ------------------------------------------------------------------ *)

(* The warm-IR experiment: N successive versions of one binary (a few
   local edits apart) rewritten two ways —

     cold   no cache: every version builds its IR (each one through the
            validated cold path, since its two sweeps agree);
     warm   a shared in-memory IR cache, seeded by one first pass: every
            version restores its snapshot, at --jobs 1 and at --jobs 4.

   Always writes BENCH_delta.json.  The run {e fails} (non-zero exit) if
   either warm pass diverges byte-wise from the cold outputs or misses
   the cache on any version, or if the warm IR phase is not at least 5x
   faster than cold: byte-identity and the speedup floor are the
   experiment's contract, not just its observables. *)
let delta_bench () =
  say "== Delta: warm IR over a versioned corpus ==";
  let versions = if !small_mode then 4 else 8 in
  let n_routines = if !small_mode then 16 else 32 in
  let vs = Workloads.Versioned.generate ~n_routines ~seed:11 ~versions () in
  let items =
    List.map
      (fun (v : Workloads.Versioned.version) ->
        {
          Parallel.Corpus.name = v.Workloads.Versioned.name;
          data = Zelf.Binary.serialize v.Workloads.Versioned.binary;
        })
      vs
  in
  let transforms = [ Transforms.Cfi.transform; Transforms.Stack_pad.transform ] in
  let corpus_seed = 1 in
  let outputs (r : Parallel.Corpus.report) =
    List.map
      (fun (e : Parallel.Corpus.entry) ->
        match e.Parallel.Corpus.result with
        | Ok o -> o.Parallel.Corpus.rewritten
        | Error m -> failwith ("delta bench: rewrite failed: " ^ m))
      r.Parallel.Corpus.entries
  in
  let identical a b = List.for_all2 Bytes.equal (outputs a) (outputs b) in
  let cold = Parallel.Corpus.rewrite_all ~jobs:1 ~transforms ~corpus_seed items in
  let ir_cache = Irdb.Cache.create () in
  ignore (Parallel.Corpus.rewrite_all ~jobs:1 ~transforms ~ir_cache ~corpus_seed items);
  let warm = Parallel.Corpus.rewrite_all ~jobs:1 ~transforms ~ir_cache ~corpus_seed items in
  (* The same cache read by 4 workers: outputs must not depend on
     scheduling. *)
  let warm4 = Parallel.Corpus.rewrite_all ~jobs:4 ~transforms ~ir_cache ~corpus_seed items in
  let cold_ir = cold.Parallel.Corpus.merged_timing.Zipr.Pipeline.ir_construction_s in
  let warm_ir = warm.Parallel.Corpus.merged_timing.Zipr.Pipeline.ir_construction_s in
  let hits (r : Parallel.Corpus.report) =
    r.Parallel.Corpus.merged_cache.Zipr.Pipeline.ir_cache_hits
  in
  let warm_speedup = if warm_ir > 0.0 then cold_ir /. warm_ir else 0.0 in
  let id_warm = identical cold warm in
  let id_jobs4 = identical cold warm4 in
  say "versions              %10d  (%d routines, seed 11)" versions n_routines;
  say "ir cold               %10.4f s" cold_ir;
  say "ir warm               %10.4f s  (%.1fx), %d/%d IR-cache hits" warm_ir warm_speedup
    (hits warm) versions;
  say "warm outputs          %s" (if id_warm then "byte-identical" else "DIVERGED");
  say "jobs=4 outputs        %s" (if id_jobs4 then "byte-identical" else "DIVERGED");
  let oc = open_out "BENCH_delta.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"delta\",\n\
    \  \"versions\": %d,\n\
    \  \"n_routines\": %d,\n\
    \  \"cold_ir_s\": %.6f,\n\
    \  \"warm_ir_s\": %.6f,\n\
    \  \"warm_speedup\": %.3f,\n\
    \  \"warm_ir_cache_hits\": %d,\n\
    \  \"byte_identical_warm\": %b,\n\
    \  \"byte_identical_jobs4\": %b,\n\
    \  %s\n\
     }\n"
    versions n_routines cold_ir warm_ir warm_speedup (hits warm) id_warm id_jobs4
    (host_json ~corpus_size:versions);
  close_out oc;
  say "wrote BENCH_delta.json (%d versions)" versions;
  if not (id_warm && id_jobs4) then failwith "delta bench: outputs diverged from the cold path";
  if hits warm <> versions || hits warm4 <> versions then
    failwith "delta bench: a warm pass missed the IR cache";
  if warm_speedup < 5.0 then
    failwith
      (Printf.sprintf "delta bench: warm IR speedup %.1fx below the 5x floor" warm_speedup)

(* ------------------------------------------------------------------ *)
(* Placement: strategy shoot-out over the scale-out corpus             *)
(* ------------------------------------------------------------------ *)

(* The search-based placement experiment: every strategy rewrites the
   same 1k+ scale-out corpus (fragmentation-heavy by design — smooth
   binaries place identically under every strategy) and the per-binary
   file-size overhead distributions are compared.  Always writes
   BENCH_placement.json.  The run {e fails} (non-zero exit) if search's
   outputs differ between --jobs 1 and --jobs 4, or if search does not
   cut the mean file-size overhead by at least 5% relative to the
   optimized allocator — the improvement floor is the experiment's
   contract, not just an observable.  A fig7-style diversity-vs-overhead
   trade-off curve (epsilon sweep over a subsample, two corpus seeds)
   rides along.

   A small fraction of generated members (~0.5% at 1k) is unsupported
   by the pipeline itself: pin planning rejects a pin whose reference
   slot collides with a fixed data island.  That verdict is reached
   before any placement decision, so it must be strategy-independent —
   the bench asserts the failure set is identical under every strategy
   (a member failing under one strategy only would be a placement bug,
   not a corpus artifact), tolerates at most 1% of the corpus, excludes
   those members from every distribution, and accounts for them in the
   output (`corpus_failed`, `excluded`). *)
let count_override = ref 0

let placement_bench () =
  say "== Placement: search vs greedy strategies over the scale-out corpus ==";
  let count =
    if !count_override > 0 then !count_override else if !small_mode then 120 else 1000
  in
  let corpus = Workloads.Scale.corpus ~seed:5 ~count () in
  let items =
    List.map
      (fun (it : Workloads.Scale.item) ->
        {
          Parallel.Corpus.name = it.Workloads.Scale.name;
          data = Zelf.Binary.serialize it.Workloads.Scale.binary;
        })
      corpus
  in
  let in_size =
    Array.of_list
      (List.map
         (fun (it : Parallel.Corpus.item) -> Bytes.length it.Parallel.Corpus.data)
         items)
  in
  let corpus_seed = 1 in
  let run ?(jobs = !jobs) strategy =
    let config = { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = strategy } in
    Parallel.Corpus.rewrite_all ~jobs ~config ~corpus_seed items
  in
  (* Successful entries, keyed by corpus index so distributions pair up
     across strategies even with unsupported members removed. *)
  let outputs (r : Parallel.Corpus.report) =
    List.filter_map
      (fun (e : Parallel.Corpus.entry) ->
        match e.Parallel.Corpus.result with
        | Ok o -> Some (e.Parallel.Corpus.index, o.Parallel.Corpus.rewritten)
        | Error _ -> None)
      r.Parallel.Corpus.entries
  in
  let failures (r : Parallel.Corpus.report) =
    List.filter_map
      (fun (e : Parallel.Corpus.entry) ->
        match e.Parallel.Corpus.result with
        | Error m -> Some (e.Parallel.Corpus.index, e.Parallel.Corpus.name, m)
        | Ok _ -> None)
      r.Parallel.Corpus.entries
  in
  let overheads (r : Parallel.Corpus.report) =
    List.map
      (fun (i, out) ->
        Stats.overhead_pct ~baseline:(float_of_int in_size.(i))
          ~measured:(float_of_int (Bytes.length out)))
      (outputs r)
  in
  let strategies =
    [
      ("naive", Zipr.Placement.naive);
      ("optimized", Zipr.Placement.optimized);
      ("random", Zipr.Placement.random);
      ("search", Zipr.Placement.search ());
    ]
  in
  let results = List.map (fun (name, s) -> (name, run s)) strategies in
  let excluded = failures (snd (List.hd results)) in
  List.iter
    (fun (name, r) ->
      if List.map (fun (i, _, _) -> i) (failures r) <> List.map (fun (i, _, _) -> i) excluded
      then
        failwith
          (Printf.sprintf
             "placement bench: failure set under %s differs from the other strategies — \
              a placement bug, not a corpus artifact"
             name))
    results;
  List.iter
    (fun (_, name, msg) -> say "excluded (unsupported) %s: %s" name msg)
    excluded;
  let failed = List.length excluded in
  if float_of_int failed > 0.01 *. float_of_int count then
    failwith
      (Printf.sprintf "placement bench: %d/%d unsupported members exceeds the 1%% tolerance"
         failed count);
  let dist name (r : Parallel.Corpus.report) =
    let ov = overheads r in
    let ms = r.Parallel.Corpus.merged_stats in
    say
      "%-10s overhead mean %6.2f%%  p50 %6.2f%%  p90 %6.2f%%  max %6.2f%%  (overflow %d B, \
       chains %d, cost %.0f, %d iter)"
      name (Stats.mean ov) (Stats.percentile ov 50.0) (Stats.percentile ov 90.0)
      (Stats.percentile ov 100.0)
      ms.Zipr.Reassemble.overflow_bytes ms.Zipr.Reassemble.chain_hops
      ms.Zipr.Reassemble.placement_cost ms.Zipr.Reassemble.search_iterations;
    (name, ov, ms)
  in
  let dists = List.map (fun (n, r) -> dist n r) results in
  let mean_of n =
    let _, ov, _ = List.find (fun (m, _, _) -> m = n) dists in
    Stats.mean ov
  in
  (* Byte-identity of the search strategy across worker counts: the whole
     point of the per-run tally and stateless seed derivation. *)
  let search1 = run ~jobs:1 (Zipr.Placement.search ()) in
  let search4 = run ~jobs:4 (Zipr.Placement.search ()) in
  let id_jobs =
    let o1 = outputs search1 and o4 = outputs search4 in
    List.length o1 = List.length o4
    && List.for_all2 (fun (i, a) (j, b) -> i = j && Bytes.equal a b) o1 o4
  in
  say "search jobs 1 vs 4    %s" (if id_jobs then "byte-identical" else "DIVERGED");
  (* Diversity-vs-overhead trade-off: epsilon diversifies the beam pick;
     two corpus seeds per epsilon measure how often the layout actually
     changes (fig7-style curve: pay overhead, buy diversity). *)
  let sub_n = min count 40 in
  let sub = List.filteri (fun i _ -> i < sub_n) items in
  let tradeoff =
    List.map
      (fun epsilon ->
        let strategy =
          Zipr.Placement.search
            ~knobs:{ Zipr.Placement.default_search_knobs with Zipr.Placement.epsilon }
            ()
        in
        let config =
          { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = strategy }
        in
        let ra = Parallel.Corpus.rewrite_all ~jobs:!jobs ~config ~corpus_seed:1 sub in
        let rb = Parallel.Corpus.rewrite_all ~jobs:!jobs ~config ~corpus_seed:2 sub in
        let oa = outputs ra and ob = outputs rb in
        let distinct =
          List.fold_left2
            (fun acc (_, a) (_, b) -> if Bytes.equal a b then acc else acc + 1)
            0 oa ob
        in
        let ov =
          List.map
            (fun (i, out) ->
              Stats.overhead_pct ~baseline:(float_of_int in_size.(i))
                ~measured:(float_of_int (Bytes.length out)))
            oa
        in
        let rate = float_of_int distinct /. float_of_int (max 1 (List.length oa)) in
        say "epsilon %.2f          distinct layouts %5.1f%%  mean overhead %6.2f%%"
          epsilon (100.0 *. rate) (Stats.mean ov);
        (epsilon, rate, Stats.mean ov))
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  let search_mean = mean_of "search" and optimized_mean = mean_of "optimized" in
  let reduction =
    if optimized_mean = 0.0 then 0.0 else (optimized_mean -. search_mean) /. optimized_mean
  in
  let gate_pass = id_jobs && reduction >= 0.05 in
  say "search vs optimized   %.2f%% -> %.2f%% mean overhead (%.1f%% relative reduction)"
    optimized_mean search_mean (100.0 *. reduction);
  let oc = open_out "BENCH_placement.json" in
  let strategy_json (name, ov, (ms : Zipr.Reassemble.stats)) =
    Printf.sprintf
      "    \"%s\": {\n\
      \      \"size_overhead_mean\": %.4f,\n\
      \      \"size_overhead_p50\": %.4f,\n\
      \      \"size_overhead_p90\": %.4f,\n\
      \      \"size_overhead_max\": %.4f,\n\
      \      \"overflow_bytes\": %d,\n\
      \      \"chain_hops\": %d,\n\
      \      \"slot_expansions\": %d,\n\
      \      \"dollops_split\": %d,\n\
      \      \"page_misses\": %d,\n\
      \      \"placement_cost\": %.1f,\n\
      \      \"search_iterations\": %d,\n\
      \      \"search_accepted\": %d,\n\
      \      \"search_rejected\": %d\n\
      \    }"
      name (Stats.mean ov) (Stats.percentile ov 50.0) (Stats.percentile ov 90.0)
      (Stats.percentile ov 100.0)
      ms.Zipr.Reassemble.overflow_bytes ms.Zipr.Reassemble.chain_hops
      ms.Zipr.Reassemble.slot_expansions ms.Zipr.Reassemble.dollops_split
      ms.Zipr.Reassemble.page_misses ms.Zipr.Reassemble.placement_cost
      ms.Zipr.Reassemble.search_iterations ms.Zipr.Reassemble.search_accepted
      ms.Zipr.Reassemble.search_rejected
  in
  let tradeoff_json =
    String.concat ",\n"
      (List.map
         (fun (e, rate, ov) ->
           Printf.sprintf
             "    { \"epsilon\": %.2f, \"distinct_layout_rate\": %.4f, \
              \"size_overhead_mean\": %.4f }"
             e rate ov)
         tradeoff)
  in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"placement\",\n\
    \  \"corpus_count\": %d,\n\
    \  \"corpus_failed\": %d,\n\
    \  \"excluded\": [%s],\n\
    \  \"corpus_seed\": %d,\n\
    \  \"strategies\": {\n\
     %s\n\
    \  },\n\
    \  \"byte_identical_jobs\": %b,\n\
    \  \"tradeoff\": [\n\
     %s\n\
    \  ],\n\
    \  \"search_gate\": { \"relative_reduction\": %.4f, \"floor\": 0.05, \"pass\": %b },\n\
    \  %s\n\
     }\n"
    count failed
    (String.concat ", "
       (List.map (fun (_, name, _) -> Printf.sprintf "\"%s\"" name) excluded))
    corpus_seed
    (String.concat ",\n" (List.map strategy_json dists))
    id_jobs tradeoff_json reduction gate_pass
    (host_json ~corpus_size:count);
  close_out oc;
  say "wrote BENCH_placement.json (%d binaries)" count;
  if not id_jobs then failwith "placement bench: search outputs diverged across --jobs";
  if reduction < 0.05 then
    failwith
      (Printf.sprintf
         "placement bench: search cut mean overhead by only %.1f%% (floor 5%%)"
         (100.0 *. reduction))

(* ------------------------------------------------------------------ *)
(* Infer: the inference refiner                                        *)
(* ------------------------------------------------------------------ *)

(* Infer bench: the inference refiner ([--infer]) over libc-like plus
   the adversarial corpus.  For every workload it measures the
   pinned-byte (ambiguous-range) reduction the refiner buys and the
   file-size overhead with the refiner off and on, then runs the
   differential soundness gate: every poller script executes on the
   original and the [--infer] rewrite, and any transcript divergence is
   a release blocker.  Always writes BENCH_infer.json; the run {e
   fails} (non-zero exit) if

     - libc-like's ambiguity reduction is below 10% (target >= 15%),
     - any differential fuzz case diverges, or
     - disabling the refiner does not reproduce the baseline bytes. *)
let infer_bench () =
  say "== Infer: inference-based third source over the adversarial corpus ==";
  let take n xs =
    let rec go i = function x :: tl when i < n -> x :: go (i + 1) tl | _ -> [] in
    go 0 xs
  in
  let suite_cap = if !small_mode then 15 else 60 in
  let specs = Workloads.Synthetic.libc_like () :: Workloads.Adversarial.all () in
  let transforms = [ Transforms.Null.transform ] in
  let rewrite ~infer binary =
    let config = { Zipr.Pipeline.default_config with Zipr.Pipeline.infer } in
    match Zipr.Pipeline.try_rewrite ~config ~transforms binary with
    | Ok r -> r
    | Error m -> failwith ("infer bench: rewrite failed: " ^ m)
  in
  let libc_reduction = ref 0.0 in
  let divergences = ref 0 in
  let identity_off = ref true in
  let rows =
    List.map
      (fun (spec : Workloads.Synthetic.spec) ->
        let b = spec.Workloads.Synthetic.binary in
        let orig_bytes = Bytes.length (Zelf.Binary.serialize b) in
        let amb agg =
          let _, _, a = Disasm.Aggregate.stats agg in
          a
        in
        let amb_base = amb (Disasm.Aggregate.run b) in
        let amb_inf = amb (Disasm.Aggregate.run ~infer:true b) in
        let reduction =
          100.0 *. float_of_int (amb_base - amb_inf) /. float_of_int (max 1 amb_base)
        in
        if spec.Workloads.Synthetic.name = "libc-like" then libc_reduction := reduction;
        let inf = Disasm.Infer.run b ~avoid:(Disasm.Recursive.traverse b) in
        (* Byte-identity with the refiner off: the baseline config and an
           explicit [infer = false] must agree byte for byte (guards the
           default ever silently flipping on). *)
        let r_base =
          match Zipr.Pipeline.try_rewrite ~transforms b with
          | Ok r -> r
          | Error m -> failwith ("infer bench: baseline rewrite failed: " ^ m)
        in
        let out_base = Zelf.Binary.serialize r_base.Zipr.Pipeline.rewritten in
        let r_off = rewrite ~infer:false b in
        if not (Bytes.equal out_base (Zelf.Binary.serialize r_off.Zipr.Pipeline.rewritten))
        then identity_off := false;
        let r_on = rewrite ~infer:true b in
        let on_bytes =
          Bytes.length (Zelf.Binary.serialize r_on.Zipr.Pipeline.rewritten)
        in
        let off_bytes = Bytes.length out_base in
        let overhead n = 100.0 *. float_of_int (n - orig_bytes) /. float_of_int orig_bytes in
        (* Differential soundness gate: transcript comparison over the
           workload's poller suite, original vs the [--infer] rewrite. *)
        let suite = take suite_cap spec.Workloads.Synthetic.test_suite in
        let check =
          Cgc.Poller.functional_check ~orig:b
            ~rewritten:r_on.Zipr.Pipeline.rewritten suite
        in
        let diverged = check.Cgc.Poller.total - check.Cgc.Poller.passed in
        divergences := !divergences + diverged;
        List.iter
          (fun (s, why) ->
            say "DIVERGED %s on %S: %s" spec.Workloads.Synthetic.name
              s.Cgc.Poller.input why)
          check.Cgc.Poller.failures;
        say
          "%-24s amb %5d -> %5d (%5.1f%%)  closed=%-5b  overhead off %6.2f%% on %6.2f%%  \
           fuzz %d/%d"
          spec.Workloads.Synthetic.name amb_base amb_inf reduction
          inf.Disasm.Infer.closed (overhead off_bytes) (overhead on_bytes)
          check.Cgc.Poller.passed check.Cgc.Poller.total;
        ( spec.Workloads.Synthetic.name,
          amb_base,
          amb_inf,
          reduction,
          inf.Disasm.Infer.closed,
          overhead off_bytes,
          overhead on_bytes,
          check.Cgc.Poller.total,
          diverged ))
      specs
  in
  say "libc-like reduction   %10.1f%%  (floor 10%%, target 15%%)" !libc_reduction;
  say "fuzz divergences      %10d" !divergences;
  say "byte-identity (off)   %s" (if !identity_off then "holds" else "VIOLATED");
  let oc = open_out "BENCH_infer.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"infer\",\n\
    \  %s,\n\
    \  \"rows\": [%s\n  ],\n\
    \  \"libc_reduction_pct\": %.2f,\n\
    \  \"fuzz_divergences\": %d,\n\
    \  \"byte_identity_off\": %b\n\
     }\n"
    (host_json ~corpus_size:(List.length specs))
    (String.concat ","
       (List.map
          (fun (name, ab, ai, red, closed, ovoff, ovon, total, div) ->
            Printf.sprintf
              "\n    { \"name\": \"%s\", \"ambiguous_before\": %d, \"ambiguous_after\": \
               %d, \"reduction_pct\": %.2f, \"closed\": %b, \"overhead_off_pct\": %.3f, \
               \"overhead_on_pct\": %.3f, \"fuzz_total\": %d, \"fuzz_divergences\": %d }"
              (Obs.Tracer.json_escape name) ab ai red closed ovoff ovon total div)
          rows))
    !libc_reduction !divergences !identity_off;
  close_out oc;
  say "wrote BENCH_infer.json (%d workloads)" (List.length rows);
  if not !identity_off then
    failwith "infer bench: baseline bytes changed with the refiner disabled";
  if !divergences > 0 then
    failwith
      (Printf.sprintf "infer bench: %d differential fuzz divergences with --infer"
         !divergences);
  if !libc_reduction < 10.0 then
    failwith
      (Printf.sprintf "infer bench: libc-like reduction %.1f%% below the 10%% floor"
         !libc_reduction)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let micro () =
  say "== Bechamel micro-benchmarks (one per table/figure) ==";
  let open Bechamel in
  let cb = Cgc.Corpus.entry 5 in
  let orig = cb.Cgc.Corpus.binary in
  let libc = Workloads.Synthetic.libc_like () in
  let rewritten_null =
    (Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] orig).Zipr.Pipeline.rewritten
  in
  let poller = List.hd cb.Cgc.Corpus.pollers in
  let tests =
    [
      (* fig4/fig7: the cost of a full Null rewrite of a CB *)
      Test.make ~name:"fig4:null-rewrite-cb"
        (Staged.stage (fun () ->
             ignore (Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] orig)));
      (* fig5: executing a poller on the rewritten binary *)
      Test.make ~name:"fig5:poller-run-rewritten"
        (Staged.stage (fun () -> ignore (Cgc.Poller.run rewritten_null poller)));
      (* fig6: CFI rewrite (the memory-heavy configuration) *)
      Test.make ~name:"fig6:cfi-rewrite-cb"
        (Staged.stage (fun () ->
             ignore (Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] orig)));
      (* e1/throughput: IR construction on the large workload *)
      Test.make ~name:"e1:ir-construction-libc"
        (Staged.stage (fun () ->
             ignore (Zipr.Ir_construction.build libc.Workloads.Synthetic.binary)));
      (* security: a PoV attempt *)
      Test.make ~name:"security:pov-attempt"
        (Staged.stage (fun () -> ignore (Cgc.Pov.attempt orig cb.Cgc.Corpus.meta)));
      (* ablation: one dollop-placement-heavy reassembly *)
      Test.make ~name:"ablation:random-placement"
        (Staged.stage (fun () ->
             let config =
               { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = Zipr.Placement.random }
             in
             ignore
               (Zipr.Pipeline.rewrite ~config ~transforms:[ Transforms.Null.transform ] orig)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let anl = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] -> say "%-32s %12.1f ns/run" name est
          | _ -> say "%-32s (no estimate)" name)
        anl)
    tests

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("security", security);
    ("throughput", throughput);
    ("alloc", alloc);
    ("ablation", ablation);
    ("pinning", pinning);
    ("jtrw", jtrw);
    ("defenses", defenses);
    ("serve", serve_bench);
    ("delta", delta_bench);
    ("placement", placement_bench);
    ("infer", infer_bench);
    ("micro", micro);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec parse names = function
    | [] -> List.rev names
    | "--json" :: rest ->
        json_mode := true;
        parse names rest
    | "--small" :: rest ->
        small_mode := true;
        parse names rest
    | "--jobs" :: n :: rest ->
        jobs := max 0 (int_of_string n);
        parse names rest
    | f :: rest when String.length f > 7 && String.sub f 0 7 = "--jobs=" ->
        jobs := max 0 (int_of_string (String.sub f 7 (String.length f - 7)));
        parse names rest
    | "--count" :: n :: rest ->
        count_override := max 1 (int_of_string n);
        parse names rest
    | f :: rest when String.length f > 8 && String.sub f 0 8 = "--count=" ->
        count_override := max 1 (int_of_string (String.sub f 8 (String.length f - 8)));
        parse names rest
    | "--clients" :: n :: rest ->
        clients := max 1 (int_of_string n);
        parse names rest
    | f :: rest when String.length f > 10 && String.sub f 0 10 = "--clients=" ->
        clients := max 1 (int_of_string (String.sub f 10 (String.length f - 10)));
        parse names rest
    | "--trace" :: rest ->
        trace_mode := true;
        parse names rest
    | f :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
        say
          "unknown flag %S; available: --json, --small, --jobs N, --clients N, --count N, \
           --trace"
          f;
        parse names rest
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] argv in
  let requested = match names with [] -> List.map fst experiments | _ -> names in
  let sink = if !trace_mode then Some (Obs.Tracer.create ()) else None in
  Option.iter Obs.install sink;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          f ();
          say ""
      | None ->
          say "unknown experiment %S; available: %s" name
            (String.concat ", " (List.map fst experiments)))
    requested;
  Option.iter
    (fun s ->
      Obs.disable ();
      say "== Trace: aggregated per-phase spans and counters ==";
      print_string (Obs.Tracer.render s))
    sink
