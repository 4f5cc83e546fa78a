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

   Run with no arguments to execute everything; or pass a subset of the
   experiment names. *)

module Histogram = Zipr_util.Histogram
module Json = Zipr_util.Json
module Stats = Zipr_util.Stats

let say fmt = Format.printf (fmt ^^ "@.")

(* ------------------------------------------------------------------ *)
(* Corpus evaluation shared by fig4-7 and security.                    *)
(* ------------------------------------------------------------------ *)

(* The 62-CB corpus, each member with its original's poller runs.  The
   originals never change, so each runs its pollers at most once per
   process, however many of its rewrites the requested sections score. *)
let corpus =
  lazy
    (List.map
       (fun (e : Cgc.Corpus.entry) -> (e, lazy (List.map (Cgc.Poller.run e.binary) e.pollers)))
       (Cgc.Corpus.build ()))

type cb_result = {
  name : string;
  null_eval : Cgc.Score.eval;
  cfi_eval : Cgc.Score.eval;
}

let corpus_results : cb_result list Lazy.t =
  lazy
    (List.map
       (fun ((e : Cgc.Corpus.entry), orig_runs) ->
         let evaluate transform =
           let r = Zipr.Pipeline.rewrite ~transforms:[ transform ] e.binary in
           Cgc.Score.evaluate ~name:e.name ~orig:e.binary ~orig_runs:(Lazy.force orig_runs)
             ~rewritten:r.Zipr.Pipeline.rewritten ~meta:e.meta ~pollers:e.pollers
         in
         let null_eval = evaluate Transforms.Null.transform in
         let cfi_eval = evaluate Transforms.Cfi.transform in
         { name = e.name; null_eval; cfi_eval })
       (Lazy.force corpus))

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
  let pov_kinds =
    List.concat_map (fun ((e : Cgc.Corpus.entry), _) -> Cgc.Pov.povs e.meta) (Lazy.force corpus)
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

(* [--small] drops the 5x jvm-like workload and shrinks the delta,
   placement and infer corpora so a smoke run stays cheap; [--jobs N]
   sets the worker-domain count of the placement bench (0 = auto-detect
   the core count). *)
let small_mode = ref false
let jobs = ref 1

(* Host facts embedded in every BENCH_*.json: timing figures are only
   comparable between runs on a known substrate, so each report records
   the core count, compiler and corpus size it was measured with. *)
let host ~corpus_size =
  ( "host",
    Json.Obj
      [ ("cores", Int (Domain.recommended_domain_count ()));
        ("ocaml_version", String Sys.ocaml_version); ("corpus_size", Int corpus_size) ] )

let write_json file v =
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string v))

let throughput () =
  say "== Throughput: rewriter processing time vs binary size (§IV-A) ==";
  say "%-18s %10s %14s %14s %14s %8s %8s" "workload" "text(B)" "IR constr(s)" "transform(s)"
    "reassembly(s)" "dollops" "queries";
  let specs =
    if !small_mode then Workloads.Synthetic.[ libc_like (); apache_like () ]
    else Workloads.Synthetic.all ()
  in
  List.iter
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
        s.Zipr.Reassemble.alloc_queries)
    specs;
  say "(paper: libc 1.6MB in under 6 min; libjvm 12MB in under 58 min; Apache 624K in 71 s —";
  say " i.e. roughly linear in binary size, which the rows above should reproduce in shape)"

(* ------------------------------------------------------------------ *)
(* Ablations (§II-A2, §III) and the defense comparison (§IV-B)         *)
(* ------------------------------------------------------------------ *)

(* The first 16 CBs rewritten under one configuration.  Each rewrite
   runs its pollers once, for both the overheads and the functionality
   tally, against the originals' shared runs.  The overhead means add
   the CBs last first, as these tables always have, so every printed
   digit is stable; the PoV tally runs only where a table prints it. *)
type eval16 = {
  size : float;
  exec : float;
  mem : float;
  stats : Zipr.Reassemble.stats;  (* summed over the 16 rewrites *)
  func : int * int;  (* pollers passed, pollers run *)
  blocked : (int * int) Lazy.t;  (* PoVs blocked, PoVs attempted *)
}

let eval16 ?(config = Zipr.Pipeline.default_config) transforms =
  let runs =
    List.map
      (fun ((e : Cgc.Corpus.entry), orig_runs) ->
        let r = Zipr.Pipeline.rewrite ~config ~transforms e.binary in
        let rw = r.Zipr.Pipeline.rewritten in
        let orig_runs = Lazy.force orig_runs in
        let check, rewritten_runs = Cgc.Poller.replay ~orig:orig_runs ~rewritten:rw e.pollers in
        let ov =
          Cgc.Score.overheads ~orig:e.binary ~rewritten:rw ~orig_runs ~rewritten_runs
        in
        (e, rw, r.Zipr.Pipeline.stats, ov, check))
      (List.filteri (fun i _ -> i < 16) (Lazy.force corpus))
  in
  let mean f = Stats.mean (List.rev_map (fun (_, _, _, ov, _) -> f ov) runs) in
  let tally f = List.fold_left (fun (a, b) (x, y) -> (a + x, b + y)) (0, 0) (List.map f runs) in
  {
    size = mean (fun ov -> ov.Cgc.Score.size_pct);
    exec = mean (fun ov -> ov.Cgc.Score.exec_pct);
    mem = mean (fun ov -> ov.Cgc.Score.mem_pct);
    stats =
      List.fold_left (fun acc (_, _, s, _, _) -> Zipr.Reassemble.merge_stats acc s)
        Zipr.Reassemble.zero_stats runs;
    func = tally (fun (_, _, _, _, c) -> (c.Cgc.Poller.passed, c.Cgc.Poller.total));
    blocked =
      lazy
        (tally (fun ((e : Cgc.Corpus.entry), rw, _, _, _) ->
             let outcomes = Cgc.Pov.attempt_all rw e.meta in
             let blocked = List.filter (fun (_, o) -> o <> Cgc.Pov.Exploited) outcomes in
             (List.length blocked, List.length outcomes)));
  }

let ablation () =
  say "== Ablation: placement strategy (naive / optimized / random), 16 CBs ==";
  say "%-11s %12s %12s %12s %10s %8s %8s" "strategy" "size ovh" "exec ovh" "mem ovh" "colocated"
    "chains" "overflow";
  List.iter
    (fun (sname, placement) ->
      let config = { Zipr.Pipeline.default_config with placement } in
      let v = eval16 ~config [ Transforms.Null.transform ] in
      say "%-11s %+11.2f%% %+11.2f%% %+11.2f%% %10d %8d %8d" sname v.size v.exec v.mem
        v.stats.pins_colocated v.stats.chain_hops v.stats.overflow_bytes)
    [
      ("naive", Zipr.Placement.naive);
      ("optimized", Zipr.Placement.optimized);
      ("random", Zipr.Placement.random);
    ];
  say "(§III: the optimized layout trades layout diversity for space/memory efficiency;";
  say " naive and random spill more code and keep fewer pins colocated)"

let pinning () =
  say "== Ablation: pinning policy — conservative (after-call pins) vs relaxed, 16 CBs ==";
  say "%-14s %8s %12s %12s %10s" "policy" "|P|" "size ovh" "exec ovh" "func";
  List.iter
    (fun (pname, pin_config) ->
      let config = { Zipr.Pipeline.default_config with pin_config } in
      let v = eval16 ~config [ Transforms.Null.transform ] in
      let passed, total = v.func in
      say "%-14s %8d %+11.2f%% %+11.2f%% %6d/%d" pname v.stats.pins_total v.size v.exec passed
        total)
    [
      ("conservative", { Analysis.Ibt.pin_after_calls = true });
      ("relaxed", { Analysis.Ibt.pin_after_calls = false });
    ];
  say "(II-A2: a larger P is always safe but less space-efficient; after-call pins are the";
  say " bulk of |P - B| and dropping them assumes no code computes on return addresses)"

let jtrw () =
  say "== Ablation: jump-table rewriting (statically modelled IBTs), 16 CBs ==";
  say "%-22s %12s %12s %10s" "configuration" "exec ovh" "size ovh" "func";
  List.iter
    (fun (cname, transforms) ->
      let v = eval16 transforms in
      let passed, total = v.func in
      say "%-22s %+11.2f%% %+11.2f%% %6d/%d" cname v.exec v.size passed total)
    [
      ("null", [ Transforms.Null.transform ]);
      ("jumptable-rewrite", [ Transforms.Jumptable_rewrite.transform ]);
      ("cfi", [ Transforms.Cfi.transform ]);
      ("jt-rewrite + cfi", [ Transforms.Jumptable_rewrite.transform; Transforms.Cfi.transform ]);
    ];
  say "(II-A2: IBTs whose behaviour is statically modelled need no pin indirection; the";
  say " rewritten tables follow their targets via relocations)"

let defenses () =
  say "== Defense comparison (§IV-B: the transforms the paper applied but could not evaluate), 16 CBs ==";
  say "%-24s %10s %10s %10s %8s %14s" "defense" "size ovh" "exec ovh" "mem ovh" "func" "PoVs blocked";
  List.iter
    (fun (dname, transforms) ->
      let v = eval16 transforms in
      let passed, total = v.func in
      let blocked, povs = Lazy.force v.blocked in
      say "%-24s %+9.1f%% %+9.1f%% %+9.1f%% %4d/%d %10d/%d" dname v.size v.exec v.mem passed total
        blocked povs)
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
  write_json "BENCH_delta.json"
    (Obj
       [ ("experiment", String "delta"); ("versions", Int versions); ("n_routines", Int n_routines);
         ("cold_ir_s", Fixed (6, cold_ir)); ("warm_ir_s", Fixed (6, warm_ir));
         ("warm_speedup", Fixed (3, warm_speedup)); ("warm_ir_cache_hits", Int (hits warm));
         ("byte_identical_warm", Bool id_warm); ("byte_identical_jobs4", Bool id_jobs4);
         host ~corpus_size:versions ]);
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
        let ov = overheads ra in
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
  let strategy_json (name, ov, (ms : Zipr.Reassemble.stats)) =
    let p q = Json.Fixed (4, Stats.percentile ov q) in
    ( name,
      Json.Obj
        [ ("size_overhead_mean", Fixed (4, Stats.mean ov)); ("size_overhead_p50", p 50.0);
          ("size_overhead_p90", p 90.0); ("size_overhead_max", p 100.0);
          ("overflow_bytes", Int ms.overflow_bytes); ("chain_hops", Int ms.chain_hops);
          ("slot_expansions", Int ms.slot_expansions); ("dollops_split", Int ms.dollops_split);
          ("page_misses", Int ms.page_misses); ("placement_cost", Fixed (1, ms.placement_cost));
          ("search_iterations", Int ms.search_iterations);
          ("search_accepted", Int ms.search_accepted);
          ("search_rejected", Int ms.search_rejected) ] )
  in
  let tradeoff_json (e, rate, ov) =
    Json.Obj
      [ ("epsilon", Fixed (2, e)); ("distinct_layout_rate", Fixed (4, rate));
        ("size_overhead_mean", Fixed (4, ov)) ]
  in
  write_json "BENCH_placement.json"
    (Obj
       [ ("experiment", String "placement"); ("corpus_count", Int count);
         ("corpus_failed", Int failed);
         ("excluded", List (List.map (fun (_, name, _) -> Json.String name) excluded));
         ("corpus_seed", Int corpus_seed); ("strategies", Obj (List.map strategy_json dists));
         ("byte_identical_jobs", Bool id_jobs);
         ("tradeoff", List (List.map tradeoff_json tradeoff));
         ( "search_gate",
           Obj
             [ ("relative_reduction", Fixed (4, reduction)); ("floor", Fixed (2, 0.05));
               ("pass", Bool gate_pass) ] );
         host ~corpus_size:count ]);
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
        let suite = List.filteri (fun i _ -> i < suite_cap) spec.Workloads.Synthetic.test_suite in
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
        Json.Obj
          [ ("name", String spec.Workloads.Synthetic.name); ("ambiguous_before", Int amb_base);
            ("ambiguous_after", Int amb_inf); ("reduction_pct", Fixed (2, reduction));
            ("closed", Bool inf.Disasm.Infer.closed);
            ("overhead_off_pct", Fixed (3, overhead off_bytes));
            ("overhead_on_pct", Fixed (3, overhead on_bytes));
            ("fuzz_total", Int check.Cgc.Poller.total); ("fuzz_divergences", Int diverged) ])
      specs
  in
  say "libc-like reduction   %10.1f%%  (floor 10%%, target 15%%)" !libc_reduction;
  say "fuzz divergences      %10d" !divergences;
  say "byte-identity (off)   %s" (if !identity_off then "holds" else "VIOLATED");
  write_json "BENCH_infer.json"
    (Obj
       [ ("experiment", String "infer"); host ~corpus_size:(List.length specs); ("rows", List rows);
         ("libc_reduction_pct", Fixed (2, !libc_reduction));
         ("fuzz_divergences", Int !divergences); ("byte_identity_off", Bool !identity_off) ]);
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

let experiments =
  [
    ("e1", e1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("security", security);
    ("throughput", throughput);
    ("ablation", ablation);
    ("pinning", pinning);
    ("jtrw", jtrw);
    ("defenses", defenses);
    ("delta", delta_bench);
    ("placement", placement_bench);
    ("infer", infer_bench);
  ]

let () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec parse names = function
    | [] -> List.rev names
    | "--small" :: rest ->
        small_mode := true;
        parse names rest
    | "--jobs" :: n :: rest ->
        jobs := max 0 (int_of_string n);
        parse names rest
    | "--count" :: n :: rest ->
        count_override := max 1 (int_of_string n);
        parse names rest
    | f :: rest when String.length f > 2 && String.sub f 0 2 = "--" ->
        say "unknown flag %S; available: --small, --jobs N, --count N" f;
        parse names rest
    | name :: rest -> parse (name :: names) rest
  in
  let names = parse [] argv in
  let requested = match names with [] -> List.map fst experiments | _ -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          f ();
          say ""
      | None ->
          say "unknown experiment %S; available: %s" name
            (String.concat ", " (List.map fst experiments)))
    requested
