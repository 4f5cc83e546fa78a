(* The observability layer: span nesting, counter merge semantics, the
   exporters, and the two hard promises instrumentation makes to the
   pipeline — a no-op disabled path, and byte-identical rewrites with
   tracing on or off at any job count. *)

module Counters = Obs.Counters
module Tracer = Obs.Tracer

(* Install a fresh sink for [f]; always tear it down, so a failing test
   cannot leak a global sink into later tests. *)
let with_sink f =
  let sink = Tracer.create () in
  Obs.install sink;
  Fun.protect ~finally:(fun () -> Obs.disable ()) (fun () -> f sink)

let is_valid_json = Json_check.is_valid

(* -- span core -- *)

let test_span_nesting () =
  with_sink (fun sink ->
      let r =
        Obs.span "outer" (fun () ->
            Obs.span "mid" (fun () -> Obs.span "leaf" (fun () -> 41)) + 1)
      in
      Alcotest.(check int) "span returns f's value" 42 r;
      let paths = List.map (fun e -> e.Tracer.path) (Tracer.events sink) in
      Alcotest.(check (list string))
        "children complete before parents"
        [ "outer/mid/leaf"; "outer/mid"; "outer" ] paths)

let test_span_containment () =
  with_sink (fun sink ->
      Obs.span "p" (fun () ->
          Obs.span "a" (fun () -> ());
          Obs.span "b" (fun () -> ()));
      let find p = List.find (fun e -> e.Tracer.path = p) (Tracer.events sink) in
      let p = find "p" and a = find "p/a" and b = find "p/b" in
      List.iter
        (fun (e : Tracer.event) ->
          Alcotest.(check bool) "ts >= 0" true (e.Tracer.ts_us >= 0);
          Alcotest.(check bool) "dur >= 0" true (e.Tracer.dur_us >= 0))
        [ p; a; b ];
      let within (c : Tracer.event) (par : Tracer.event) =
        c.Tracer.ts_us >= par.Tracer.ts_us
        && c.Tracer.ts_us + c.Tracer.dur_us <= par.Tracer.ts_us + par.Tracer.dur_us
      in
      Alcotest.(check bool) "a within p" true (within a p);
      Alcotest.(check bool) "b within p" true (within b p);
      Alcotest.(check bool) "siblings ordered" true
        (a.Tracer.ts_us + a.Tracer.dur_us <= b.Tracer.ts_us))

let test_span_exception_unwinds () =
  with_sink (fun sink ->
      (try Obs.span "top" (fun () -> Obs.span "boom" (fun () -> failwith "x"))
       with Failure _ -> ());
      let paths = List.map (fun e -> e.Tracer.path) (Tracer.events sink) in
      Alcotest.(check (list string))
        "both spans recorded despite the raise" [ "top/boom"; "top" ] paths;
      (* The DLS stack unwound: a fresh span is a root again. *)
      Obs.span "after" (fun () -> ());
      let last = List.nth (Tracer.events sink) 2 in
      Alcotest.(check string) "stack unwound" "after" last.Tracer.path)

let test_root_span_detaches () =
  with_sink (fun sink ->
      Obs.span "outer" (fun () -> Obs.span ~root:true "task" (fun () ->
          Obs.span "inner" (fun () -> ())));
      let paths = List.map (fun e -> e.Tracer.path) (Tracer.events sink) in
      Alcotest.(check (list string))
        "root span ignores the enclosing stack"
        [ "task/inner"; "task"; "outer" ] paths)

let test_now_monotonic () =
  let sink = Tracer.create () in
  let last = ref 0 in
  for _ = 1 to 10_000 do
    let t = Tracer.now sink in
    if t < !last then Alcotest.failf "clock went backwards: %d after %d" t !last;
    last := t
  done

(* -- disabled path -- *)

let test_null_sink_no_effect () =
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "span passes value through" 7 (Obs.span "x" (fun () -> 7));
  Obs.count "nope" 5;
  Obs.gauge_max "nope" 5;
  Obs.merge_counters (Counters.create ());
  (* None of the above may leave residue in a sink installed later. *)
  with_sink (fun sink ->
      Alcotest.(check int) "no spans leak in" 0 (List.length (Tracer.events sink));
      Alcotest.(check int) "no counters leak in" 0
        (List.length (Counters.snapshot (Tracer.counters sink))));
  (* An exception raised under a disabled span propagates untouched. *)
  Alcotest.check_raises "raise passes through" (Failure "pp") (fun () ->
      Obs.span "x" (fun () -> failwith "pp"))

(* -- counters -- *)

let test_counter_kinds () =
  let c = Counters.create () in
  let s = Counters.counter c "s" and m = Counters.gauge c "m" in
  Counters.bump s 3;
  Counters.bump s 4;
  Counters.bump m 3;
  Counters.bump m 2;
  Counters.bump m 4;
  Alcotest.(check int) "sum adds" 7 (Counters.get s);
  Alcotest.(check int) "max keeps high-water" 4 (Counters.get m);
  Alcotest.(check bool) "idempotent registration" true (Counters.counter c "s" == s);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Counters.cell: \"s\" registered with another kind") (fun () ->
      ignore (Counters.gauge c "s"))

let test_counter_merge_commutes =
  QCheck.Test.make ~name:"counter merge is schedule-independent" ~count:50
    QCheck.(pair (list (int_bound 1000)) (int_bound 3))
    (fun (bumps, extra_domains) ->
      let domains = 1 + extra_domains in
      (* Shard the bump list round-robin across domains, each bumping a
         shared registry concurrently; also build per-domain registries
         and merge them in both orders. *)
      let shared = Counters.create () in
      let shard d =
        let local = Counters.create () in
        let sc = Counters.counter shared "s" and sm = Counters.gauge shared "m" in
        let lc = Counters.counter local "s" and lm = Counters.gauge local "m" in
        List.iteri
          (fun i v ->
            if i mod domains = d then begin
              Counters.bump sc v;
              Counters.bump sm v;
              Counters.bump lc v;
              Counters.bump lm v
            end)
          bumps;
        local
      in
      let locals =
        List.map Domain.join (List.init domains (fun d -> Domain.spawn (fun () -> shard d)))
      in
      let expected_sum = List.fold_left ( + ) 0 bumps in
      let expected_max = List.fold_left max 0 bumps in
      let into_fwd = Counters.create () and into_rev = Counters.create () in
      List.iter (fun l -> Counters.merge ~into:into_fwd l) locals;
      List.iter (fun l -> Counters.merge ~into:into_rev l) (List.rev locals);
      let get reg = (Counters.get (Counters.counter reg "s"), Counters.get (Counters.gauge reg "m")) in
      get shared = (expected_sum, expected_max)
      && get into_fwd = (expected_sum, expected_max)
      && get into_fwd = get into_rev)

(* -- exporters -- *)

let populated_sink () =
  with_sink (fun sink ->
      Obs.span "ph\"ase" ~args:[ ("k", "v\\w") ] (fun () ->
          Obs.span "inner" (fun () -> ()));
      Obs.count "c.one" 3;
      Obs.gauge_max "g.two" 9;
      sink)

let test_chrome_json_valid () =
  let sink = populated_sink () in
  let j = Tracer.chrome_json sink in
  Alcotest.(check bool) "chrome export parses as JSON" true (is_valid_json j);
  (* The escaped name must round-trip into the output. *)
  Alcotest.(check bool) "escapes quotes" true
    (let needle = "ph\\\"ase" in
     let rec find i =
       i + String.length needle <= String.length j
       && (String.sub j i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_report_json_valid () =
  let sink = populated_sink () in
  Alcotest.(check bool) "report export parses as JSON" true
    (is_valid_json (Tracer.report_json sink));
  let agg = Tracer.aggregate sink in
  Alcotest.(check (list string))
    "aggregate rows sorted by path"
    [ "ph\"ase"; "ph\"ase/inner" ]
    (List.map (fun r -> r.Tracer.row_path) agg);
  List.iter
    (fun r ->
      Alcotest.(check bool) "row totals sane" true
        (r.Tracer.count = 1 && r.Tracer.total_us >= 0
        && r.Tracer.min_us <= r.Tracer.max_us))
    agg

let test_empty_sink_exports () =
  let sink = Tracer.create () in
  Alcotest.(check bool) "empty chrome export valid" true (is_valid_json (Tracer.chrome_json sink));
  Alcotest.(check bool) "empty report valid" true (is_valid_json (Tracer.report_json sink))

(* -- determinism regressions -- *)

let rewrite_bytes binary =
  let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] binary in
  Zelf.Binary.serialize r.Zipr.Pipeline.rewritten

let test_traced_rewrite_identical () =
  List.iter
    (fun (name, (w : Workloads.Synthetic.spec)) ->
      let plain = rewrite_bytes w.Workloads.Synthetic.binary in
      let traced = with_sink (fun _ -> rewrite_bytes w.Workloads.Synthetic.binary) in
      Alcotest.(check bool)
        (name ^ ": traced rewrite is byte-identical")
        true (Bytes.equal plain traced))
    [
      ("libc-like", Workloads.Synthetic.libc_like ~seed:5 ~tests:0 ());
      ("frag-like", Workloads.Synthetic.frag_like ~seed:5 ~tests:0 ());
    ]

let corpus_items () =
  List.map
    (fun seed ->
      let b, _ = Cgc.Cb_gen.generate ~seed Cgc.Cb_gen.default_profile in
      {
        Parallel.Corpus.name = Printf.sprintf "cb%d" seed;
        data = Zelf.Binary.serialize b;
      })
    [ 1; 2; 3; 4; 5 ]

let test_corpus_trace_jobs_independent () =
  let items = corpus_items () in
  let run jobs =
    with_sink (fun sink ->
        let report = Parallel.Corpus.rewrite_all ~jobs ~corpus_seed:9 items in
        (Tracer.deterministic_summary sink, report))
  in
  let summary1, report1 = run 1 in
  let summary4, report4 = run 4 in
  Alcotest.(check string) "aggregated trace is --jobs independent" summary1 summary4;
  List.iter2
    (fun (a : Parallel.Corpus.entry) (b : Parallel.Corpus.entry) ->
      match (a.Parallel.Corpus.result, b.Parallel.Corpus.result) with
      | Ok x, Ok y ->
          Alcotest.(check bool)
            (a.Parallel.Corpus.name ^ ": jobs 1 vs 4 byte-identical under tracing")
            true
            (Bytes.equal x.Parallel.Corpus.rewritten y.Parallel.Corpus.rewritten)
      | _ -> Alcotest.fail "corpus rewrite failed")
    report1.Parallel.Corpus.entries report4.Parallel.Corpus.entries;
  (* And tracing itself never changed the bytes: compare against untraced. *)
  let untraced = Parallel.Corpus.rewrite_all ~jobs:1 ~corpus_seed:9 items in
  List.iter2
    (fun (a : Parallel.Corpus.entry) (b : Parallel.Corpus.entry) ->
      match (a.Parallel.Corpus.result, b.Parallel.Corpus.result) with
      | Ok x, Ok y ->
          Alcotest.(check bool) "traced vs untraced byte-identical" true
            (Bytes.equal x.Parallel.Corpus.rewritten y.Parallel.Corpus.rewritten)
      | _ -> Alcotest.fail "corpus rewrite failed")
    untraced.Parallel.Corpus.entries report1.Parallel.Corpus.entries

let test_pipeline_counters_populate () =
  with_sink (fun sink ->
      let w = Workloads.Synthetic.libc_like ~seed:5 ~tests:0 () in
      ignore (rewrite_bytes w.Workloads.Synthetic.binary);
      let snap = Counters.snapshot (Tracer.counters sink) in
      (* A tier that never won its race is simply unregistered — read 0. *)
      let get n =
        match List.find_opt (fun (n', _, _) -> n' = n) snap with
        | Some (_, _, v) -> v
        | None -> 0
      in
      Alcotest.(check bool) "placements recorded" true
        (get "reassemble.placement_decisions" > 0);
      Alcotest.(check bool) "dollops recorded" true (get "reassemble.dollops_placed" > 0);
      Alcotest.(check bool) "allocator traffic merged" true (get "memspace.alloc_queries" > 0);
      (* A placement decision resolves to exactly one tier. *)
      let tiers =
        get "placement.near_referent" + get "placement.pinned_page" + get "placement.text"
        + get "placement.split" + get "placement.overflow"
      in
      Alcotest.(check int) "tier outcomes sum to decisions"
        (get "reassemble.placement_decisions") tiers)

let suite =
  [
    Alcotest.test_case "span nesting order" `Quick test_span_nesting;
    Alcotest.test_case "span containment" `Quick test_span_containment;
    Alcotest.test_case "span exception unwind" `Quick test_span_exception_unwinds;
    Alcotest.test_case "root span detaches" `Quick test_root_span_detaches;
    Alcotest.test_case "clock monotonic" `Quick test_now_monotonic;
    Alcotest.test_case "null sink no effect" `Quick test_null_sink_no_effect;
    Alcotest.test_case "counter kinds" `Quick test_counter_kinds;
    QCheck_alcotest.to_alcotest test_counter_merge_commutes;
    Alcotest.test_case "chrome export valid json" `Quick test_chrome_json_valid;
    Alcotest.test_case "report export valid json" `Quick test_report_json_valid;
    Alcotest.test_case "empty sink exports" `Quick test_empty_sink_exports;
    Alcotest.test_case "traced rewrite byte-identical" `Slow test_traced_rewrite_identical;
    Alcotest.test_case "corpus trace jobs-independent" `Slow test_corpus_trace_jobs_independent;
    Alcotest.test_case "pipeline counters populate" `Slow test_pipeline_counters_populate;
  ]
