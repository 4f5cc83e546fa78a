(* The domain-parallel corpus engine: pool mechanics, deterministic RNG
   sharding, order-independent stats merging, and the end-to-end
   jobs-independence property the whole subsystem exists to provide. *)

module Pool = Parallel.Pool
module Corpus = Parallel.Corpus
module Rng = Zipr_util.Rng

(* -- Rng.derive: the sharded seed function is part of the output format
      (rewritten bytes depend on it), so its values are pinned. -- *)

let test_derive_pinned () =
  let check s i expected =
    Alcotest.(check int)
      (Printf.sprintf "derive %d %d" s i)
      expected
      (Rng.derive ~corpus_seed:s ~index:i)
  in
  check 0 0 1299394637241201967;
  check 0 1 3701113985490053897;
  check 7 0 2102454193392332656;
  check 7 5 1336422713366693928;
  check 123456789 41 2709742889758532527

let test_derive_properties () =
  (* Non-negative, and injective-in-practice over a small grid. *)
  let seen = Hashtbl.create 512 in
  for s = 0 to 15 do
    for i = 0 to 15 do
      let d = Rng.derive ~corpus_seed:s ~index:i in
      Alcotest.(check bool) "non-negative" true (d >= 0);
      Alcotest.(check bool) "no collision" false (Hashtbl.mem seen d);
      Hashtbl.replace seen d ()
    done
  done

(* -- Pool: results land in submission order, every task runs once,
      per-worker accounting adds up. -- *)

let test_pool_map_order () =
  let input = Array.init 37 (fun i -> i) in
  List.iter
    (fun jobs ->
      let timed, stats, _q = Pool.map ~jobs (fun i -> (2 * i) + 1) input in
      Array.iteri
        (fun i t -> Alcotest.(check int) "value in slot" ((2 * i) + 1) t.Pool.value)
        timed;
      Alcotest.(check int) "one stat per worker" jobs (Array.length stats);
      let total = Array.fold_left (fun acc w -> acc + w.Pool.tasks_run) 0 stats in
      Alcotest.(check int) "every task ran once" 37 total)
    [ 1; 2; 4 ]

let test_pool_inline_when_serial () =
  (* jobs <= 1 must not spawn domains: everything runs on worker 0. *)
  let timed, stats, _ = Pool.map ~jobs:1 (fun i -> i) (Array.init 5 (fun i -> i)) in
  Array.iter (fun t -> Alcotest.(check int) "worker 0" 0 t.Pool.worker) timed;
  Alcotest.(check int) "one worker stat" 1 (Array.length stats)

let test_pool_task_exception_propagates () =
  match Pool.map ~jobs:2 (fun i -> if i = 3 then failwith "boom" else i) (Array.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected the task exception to re-raise at shutdown"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

(* -- Pool shutdown paths: the serve daemon leans on these — drain must
      complete in-flight work, close must be idempotent, and submission
      after close must fail fast instead of hanging. -- *)

let test_pool_shutdown_drains_inflight () =
  let pool = Pool.create ~capacity:16 ~jobs:2 () in
  let done_ = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.submit pool (fun ~worker:_ ~wait_s:_ ->
        Unix.sleepf 0.01;
        Atomic.incr done_)
  done;
  let stats, _q = Pool.shutdown pool in
  Alcotest.(check int) "every accepted task completed" 10 (Atomic.get done_);
  let total = Array.fold_left (fun acc w -> acc + w.Pool.tasks_run) 0 stats in
  Alcotest.(check int) "worker accounting matches" 10 total

let test_pool_double_shutdown_idempotent () =
  let pool = Pool.create ~jobs:2 () in
  Pool.submit pool (fun ~worker:_ ~wait_s:_ -> ());
  let a, _ = Pool.shutdown pool in
  let b, _ = Pool.shutdown pool in
  Alcotest.(check int) "same worker count both times" (Array.length a) (Array.length b)

let test_pool_double_shutdown_error_once () =
  (* A task exception re-raises at the first shutdown only: the second
     close is a clean no-op (the serve daemon's signal path may race a
     normal exit into two closes). *)
  let pool = Pool.create ~jobs:1 () in
  Pool.submit pool (fun ~worker:_ ~wait_s:_ -> failwith "task-boom");
  (match Pool.shutdown pool with
  | _ -> Alcotest.fail "first shutdown must re-raise the task exception"
  | exception Failure msg -> Alcotest.(check string) "original error" "task-boom" msg);
  match Pool.shutdown pool with
  | _ -> ()
  | exception e -> Alcotest.failf "second shutdown must not raise: %s" (Printexc.to_string e)

let test_pool_submit_after_shutdown_rejects () =
  let pool = Pool.create ~jobs:1 () in
  ignore (Pool.shutdown pool);
  (match Pool.submit pool (fun ~worker:_ ~wait_s:_ -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ());
  match Pool.try_submit pool (fun ~worker:_ ~wait_s:_ -> ()) with
  | Pool.Closed -> ()
  | Pool.Submitted | Pool.Queue_full -> Alcotest.fail "try_submit after shutdown must be Closed"

let test_pool_try_submit_queue_full () =
  (* One worker, capacity 1: a blocker occupies the worker, one queued
     task fills the queue; the next try_submit must reject, not block. *)
  let pool = Pool.create ~capacity:1 ~jobs:1 () in
  let release = Atomic.make false in
  let ran = Atomic.make 0 in
  Pool.submit pool (fun ~worker:_ ~wait_s:_ ->
      while not (Atomic.get release) do
        Unix.sleepf 0.002
      done);
  (* Wait for the worker to pick the blocker up so the queue is empty. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let queued () =
    match Pool.try_submit pool (fun ~worker:_ ~wait_s:_ -> Atomic.incr ran) with
    | Pool.Submitted -> true
    | Pool.Queue_full -> false
    | Pool.Closed -> Alcotest.fail "pool closed unexpectedly"
  in
  while (not (queued ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  (* Queue now holds one task; the bound must hold. *)
  (match Pool.try_submit pool (fun ~worker:_ ~wait_s:_ -> Atomic.incr ran) with
  | Pool.Queue_full -> ()
  | Pool.Submitted -> Alcotest.fail "queue bound not enforced"
  | Pool.Closed -> Alcotest.fail "pool closed unexpectedly");
  Atomic.set release true;
  ignore (Pool.shutdown pool);
  Alcotest.(check int) "the queued task still ran" 1 (Atomic.get ran)

(* -- stats merge: a commutative monoid (warnings excepted, which
      concatenate). -- *)

let sample_stats () =
  let w = Workloads.Synthetic.apache_like ~tests:0 () in
  let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] w.binary in
  r.Zipr.Pipeline.stats

let test_stats_monoid () =
  let a = sample_stats () in
  let b = { a with Zipr.Reassemble.dollops_placed = 3; warnings = [ "w1" ] } in
  Alcotest.(check bool) "left identity" true (Zipr.Reassemble.merge_stats Zipr.Reassemble.zero_stats a = a);
  Alcotest.(check bool) "right identity" true (Zipr.Reassemble.merge_stats a Zipr.Reassemble.zero_stats = a);
  let ab = Zipr.Reassemble.merge_stats a b and ba = Zipr.Reassemble.merge_stats b a in
  Alcotest.(check bool)
    "counters commute" true
    ({ ab with Zipr.Reassemble.warnings = [] } = { ba with Zipr.Reassemble.warnings = [] });
  Alcotest.(check (list string))
    "warnings concatenate in fold order" [ "w1" ]
    ab.Zipr.Reassemble.warnings

(* -- Corpus: the ISSUE's property — jobs must not be observable in the
      deterministic output surface. -- *)

let corpus_items () =
  (* Varied binaries, including the fragmentation-heavy one that splits
     dollops, so the merged stats have every counter live. *)
  List.map
    (fun (w : Workloads.Synthetic.spec) ->
      { Corpus.name = w.name; data = Zelf.Binary.serialize w.binary })
    [
      Workloads.Synthetic.apache_like ~tests:0 ();
      Workloads.Synthetic.apache_like ~seed:904 ~tests:0 ();
      Workloads.Synthetic.libc_like ~tests:0 ();
      Workloads.Synthetic.frag_like ~tests:0 ();
      Workloads.Synthetic.apache_like ~seed:905 ~tests:0 ();
      Workloads.Synthetic.libc_like ~seed:906 ~tests:0 ();
    ]

let random_config =
  { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = Zipr.Placement.random }

let test_jobs_independence () =
  let items = corpus_items () in
  List.iter
    (fun corpus_seed ->
      let a =
        Corpus.rewrite_all ~jobs:1 ~config:random_config
          ~transforms:[ Transforms.Null.transform ] ~corpus_seed items
      in
      let b =
        Corpus.rewrite_all ~jobs:4 ~config:random_config
          ~transforms:[ Transforms.Null.transform ] ~corpus_seed items
      in
      List.iter2
        (fun (x : Corpus.entry) (y : Corpus.entry) ->
          Alcotest.(check int) "same index" x.index y.index;
          Alcotest.(check int) "same derived seed" x.seed y.seed;
          match (x.result, y.result) with
          | Ok ox, Ok oy ->
              Alcotest.(check bool)
                (Printf.sprintf "byte-identical output (%s, corpus seed %d)" x.name corpus_seed)
                true
                (Bytes.equal ox.Corpus.rewritten oy.Corpus.rewritten);
              Alcotest.(check bool) "same per-binary stats" true (ox.Corpus.stats = oy.Corpus.stats)
          | Error ex, Error ey -> Alcotest.(check string) "same error" ex ey
          | _ -> Alcotest.fail "ok/error verdict differs between jobs 1 and 4")
        a.Corpus.entries b.Corpus.entries;
      Alcotest.(check bool) "identical merged stats" true
        (a.Corpus.merged_stats = b.Corpus.merged_stats);
      Alcotest.(check int) "same ok count" a.Corpus.ok b.Corpus.ok;
      Alcotest.(check int) "same failed count" a.Corpus.failed b.Corpus.failed;
      Alcotest.(check bool) "merged counters live" true
        (a.Corpus.merged_stats.Zipr.Reassemble.dollops_placed > 0))
    [ 3; 1177 ]

let test_corpus_error_isolation () =
  let items =
    [
      { Corpus.name = "garbage"; data = Bytes.of_string "not an elf at all" };
      List.nth (corpus_items ()) 0;
      { Corpus.name = "empty"; data = Bytes.create 0 };
    ]
  in
  let r = Corpus.rewrite_all ~jobs:2 ~corpus_seed:1 items in
  Alcotest.(check int) "one ok" 1 r.Corpus.ok;
  Alcotest.(check int) "two failed" 2 r.Corpus.failed;
  Alcotest.(check int) "all entries reported" 3 (List.length r.Corpus.entries);
  (match (List.nth r.Corpus.entries 0).Corpus.result with
  | Error msg -> Alcotest.(check bool) "parse error surfaced" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "garbage item must fail");
  match (List.nth r.Corpus.entries 1).Corpus.result with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "good item failed: %s" e

let test_corpus_seed_matters () =
  let items = corpus_items () in
  let outputs corpus_seed =
    let r = Corpus.rewrite_all ~jobs:1 ~config:random_config ~corpus_seed items in
    List.filter_map
      (fun (e : Corpus.entry) ->
        match e.Corpus.result with Ok o -> Some o.Corpus.rewritten | Error _ -> None)
      r.Corpus.entries
  in
  Alcotest.(check bool) "different corpus seeds shuffle layouts" true
    (outputs 3 <> outputs 4)

(* -- fuzz driver: same property at the next layer up — the summary
      (reproducers and failure order included) must not depend on jobs.
      The injected fault makes every case fail, exercising minimization
      on the workers. -- *)

let test_fuzz_jobs_independence () =
  let opts jobs =
    {
      Fuzz.Driver.default_options with
      Fuzz.Driver.cases = 8;
      seed = 9;
      fault = Some Fuzz.Driver.Skip_pin;
      shrink_budget = 40;
      jobs;
    }
  in
  let a = Fuzz.Driver.run (opts 1) and b = Fuzz.Driver.run (opts 3) in
  Alcotest.(check string) "identical summary" (Fuzz.Driver.render_summary a)
    (Fuzz.Driver.render_summary b);
  Alcotest.(check int) "identical rewrite counters" a.Fuzz.Driver.rewrites b.Fuzz.Driver.rewrites;
  Alcotest.(check int) "identical input counters" a.Fuzz.Driver.inputs_compared
    b.Fuzz.Driver.inputs_compared;
  List.iter2
    (fun (x : Fuzz.Driver.failure) (y : Fuzz.Driver.failure) ->
      Alcotest.(check int) "failure case order" x.Fuzz.Driver.case y.Fuzz.Driver.case;
      Alcotest.(check string) "identical reproducer" x.Fuzz.Driver.repro_zasm
        y.Fuzz.Driver.repro_zasm)
    a.Fuzz.Driver.failures b.Fuzz.Driver.failures

(* The shared 0-means-auto rule behind every --jobs flag. *)
let test_jobs_auto () =
  Alcotest.(check bool) "resolve_jobs 0 >= 1" true (Zipr.Pipeline.resolve_jobs 0 >= 1);
  Alcotest.(check int) "resolve_jobs clamps" 1 (Zipr.Pipeline.resolve_jobs (-3));
  Alcotest.(check int) "resolve_jobs passes through" 4 (Zipr.Pipeline.resolve_jobs 4)

let suite =
  [
    Alcotest.test_case "Rng.derive pinned values" `Quick test_derive_pinned;
    Alcotest.test_case "Rng.derive non-negative, collision-free" `Quick test_derive_properties;
    Alcotest.test_case "pool map preserves order (jobs 1/2/4)" `Quick test_pool_map_order;
    Alcotest.test_case "pool serial path stays inline" `Quick test_pool_inline_when_serial;
    Alcotest.test_case "pool re-raises task exceptions" `Quick test_pool_task_exception_propagates;
    Alcotest.test_case "pool shutdown drains in-flight tasks" `Quick
      test_pool_shutdown_drains_inflight;
    Alcotest.test_case "pool double shutdown is idempotent" `Quick
      test_pool_double_shutdown_idempotent;
    Alcotest.test_case "pool shutdown re-raises a task error once" `Quick
      test_pool_double_shutdown_error_once;
    Alcotest.test_case "pool submit after shutdown fails fast" `Quick
      test_pool_submit_after_shutdown_rejects;
    Alcotest.test_case "pool try_submit enforces the queue bound" `Quick
      test_pool_try_submit_queue_full;
    Alcotest.test_case "stats merge is a monoid" `Quick test_stats_monoid;
    Alcotest.test_case "corpus jobs 1 vs 4: byte-identical, same merged stats" `Slow
      test_jobs_independence;
    Alcotest.test_case "corpus isolates per-file failures" `Quick test_corpus_error_isolation;
    Alcotest.test_case "corpus seed changes layouts" `Quick test_corpus_seed_matters;
    Alcotest.test_case "fuzz jobs 1 vs 3: identical summary" `Slow test_fuzz_jobs_independence;
    Alcotest.test_case "jobs 0 auto-detects" `Quick test_jobs_auto;
  ]
