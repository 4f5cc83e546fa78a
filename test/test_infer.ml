(* The inference refiner (Disasm.Infer): soundness against the primary
   sources, refinement monotonicity, the static termination bound,
   byte-identity with the refiner off, composition with the validated
   cold path and the IR cache, and the differential soundness gate
   over the adversarial corpus. *)

module Agg = Disasm.Aggregate
module Infer = Disasm.Infer
module Adv = Workloads.Adversarial

let transforms = [ Transforms.Null.transform ]

let rewrite ?ir_cache ?(infer = false) binary =
  let config = { Zipr.Pipeline.default_config with Zipr.Pipeline.infer } in
  match Zipr.Pipeline.try_rewrite ?ir_cache ~config ~transforms binary with
  | Ok r -> r
  | Error m -> Alcotest.failf "rewrite failed: %s" m

let out (r : Zipr.Pipeline.result) = Zelf.Binary.serialize r.Zipr.Pipeline.rewritten

(* The corpus a property samples from: every adversarial class plus the
   libc-like stand-in, each at a handful of seeds. *)
let classes =
  [|
    (fun seed -> Workloads.Synthetic.libc_like ~seed ~tests:0 ());
    (fun seed -> Adv.overlap_trap ~seed ~tests:0 ());
    (fun seed -> Adv.flattened_dispatch ~seed ~tests:0 ());
    (fun seed -> Adv.masked_dispatch ~seed ~tests:0 ());
    (fun seed -> Adv.opaque_dispatch ~seed ~tests:0 ());
    (fun seed -> Adv.dense_islands ~seed ~tests:0 ());
  |]

let spec_of (cls, seed) = classes.(cls mod Array.length classes) (101 + seed)

let gen_case =
  QCheck.(
    make
      ~print:(fun (c, s) -> Printf.sprintf "class %d seed %d" c s)
      Gen.(pair (0 -- 5) (0 -- 4)))

(* -- soundness: the refiner never overturns a primary verdict -- *)

let prop_soundness =
  QCheck.Test.make ~count:12 ~name:"refiner flips ambiguous bytes only" gen_case
    (fun case ->
      let b = (spec_of case).Workloads.Synthetic.binary in
      let base = Agg.run b and refined = Agg.run ~infer:true b in
      Array.iteri
        (fun i v ->
          if v <> Agg.Ambiguous then
            Alcotest.(check bool)
              (Printf.sprintf "primary verdict at +%d preserved" i)
              true
              (refined.Agg.verdicts.(i) = v))
        base.Agg.verdicts;
      List.for_all
        (fun (off, _) -> base.Agg.verdicts.(off) = Agg.Ambiguous)
        refined.Agg.refined)

(* -- monotonicity: refinement only shrinks the ambiguous set, and the
      tally accounts for every flipped byte -- *)

let prop_monotone =
  QCheck.Test.make ~count:12 ~name:"refinement is monotone and accounted" gen_case
    (fun case ->
      let b = (spec_of case).Workloads.Synthetic.binary in
      let base = Agg.run b and refined = Agg.run ~infer:true b in
      let amb a =
        let _, _, x = Agg.stats a in
        x
      in
      Alcotest.(check bool) "ambiguous shrinks" true (amb refined <= amb base);
      Alcotest.(check int) "tally accounts every flip"
        (amb base - amb refined)
        (refined.Agg.tally.Agg.refined_code + refined.Agg.tally.Agg.refined_data);
      Alcotest.(check int) "provenance covers every flip"
        (List.length refined.Agg.refined)
        (List.fold_left (fun a (_, n) -> a + n) 0 refined.Agg.tally.Agg.refined_by_fact);
      true)

(* -- termination: the fixpoint drains within the static bound -- *)

let prop_terminates =
  QCheck.Test.make ~count:12 ~name:"fixpoint rounds within round_bound" gen_case
    (fun case ->
      let b = (spec_of case).Workloads.Synthetic.binary in
      let inf = Infer.run b ~avoid:(Disasm.Recursive.traverse b) in
      inf.Infer.rounds <= Infer.round_bound b)

(* -- byte-identity with the refiner off -- *)

let test_identity_off () =
  List.iter
    (fun (spec : Workloads.Synthetic.spec) ->
      let b = spec.Workloads.Synthetic.binary in
      let base = Agg.run b in
      Alcotest.(check (list int)) "no pin hints without the refiner" [] base.Agg.pin_hints;
      Alcotest.(check int) "no refined bytes without the refiner" 0
        (base.Agg.tally.Agg.refined_code + base.Agg.tally.Agg.refined_data);
      let dflt =
        match Zipr.Pipeline.try_rewrite ~transforms b with
        | Ok r -> r
        | Error m -> Alcotest.failf "default rewrite failed: %s" m
      in
      Alcotest.(check bool)
        (spec.Workloads.Synthetic.name ^ ": explicit infer=false is the default")
        true
        (Bytes.equal (out dflt) (out (rewrite ~infer:false b))))
    [ Workloads.Synthetic.libc_like ~tests:0 (); Adv.masked_dispatch ~tests:0 () ]

(* -- the adversarial corpus behaves as designed -- *)

let test_adversarial_closure () =
  let closed spec =
    let b = spec.Workloads.Synthetic.binary in
    (Infer.run b ~avoid:(Disasm.Recursive.traverse b)).Infer.closed
  in
  Alcotest.(check bool) "masked dispatch closes" true (closed (Adv.masked_dispatch ~tests:0 ()));
  Alcotest.(check bool) "dense islands close" true (closed (Adv.dense_islands ~tests:0 ()));
  (* The opaque class loads its target from a writable table: resolving
     it would be unsound, so the closed-world proof must fail and the
     unreachable fact must stay off. *)
  let b = (Adv.opaque_dispatch ~tests:0 ()).Workloads.Synthetic.binary in
  let inf = Infer.run b ~avoid:(Disasm.Recursive.traverse b) in
  Alcotest.(check bool) "opaque dispatch must not close" false inf.Infer.closed;
  Alcotest.(check int) "no unreachable claims without closure" 0
    (List.assoc (Infer.fact_name Infer.Unreachable) inf.Infer.fact_counts)

let test_overlap_reported_not_clamped () =
  (* Whether the generator's decode phases actually collide is
     seed-dependent; 102 is a seed where they do. *)
  let b = (Adv.overlap_trap ~seed:102 ~tests:0 ()).Workloads.Synthetic.binary in
  let refined = Agg.run ~infer:true b in
  Alcotest.(check bool) "length-mismatched overlaps are reported" true
    (refined.Agg.tally.Agg.overlap_len_mismatch > 0);
  (* Reported, not clamped: the mismatch never flips a byte by itself —
     every flip still carries a fact tag. *)
  List.iter
    (fun (_, tag) ->
      Alcotest.(check bool) "flip carries a fact tag" true
        (List.mem tag (List.map Infer.fact_name Infer.all_facts)))
    refined.Agg.refined

let test_pin_hints_reach_ibt () =
  let b = (Adv.masked_dispatch ~tests:0 ()).Workloads.Synthetic.binary in
  let r = rewrite ~infer:true b in
  let agg = r.Zipr.Pipeline.ir.Zipr.Ir_construction.aggregate in
  Alcotest.(check bool) "masked dispatch yields pin hints" true
    (agg.Agg.pin_hints <> []);
  let pins = Analysis.Ibt.pins r.Zipr.Pipeline.ir.Zipr.Ir_construction.pins in
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "hint 0x%x is pinned" a)
        true
        (List.mem_assoc a pins))
    agg.Agg.pin_hints

(* -- composition: the IR cache reproduces the cold [--infer] build
      byte for byte -- *)

let test_composes_with_ir_cache () =
  let b = (Adv.masked_dispatch ~tests:0 ()).Workloads.Synthetic.binary in
  let plain = rewrite ~infer:true b in
  let ir_cache = Irdb.Cache.create () in
  let hits (r : Zipr.Pipeline.result) = r.Zipr.Pipeline.cache.Zipr.Pipeline.ir_cache_hits in
  let misses (r : Zipr.Pipeline.result) =
    r.Zipr.Pipeline.cache.Zipr.Pipeline.ir_cache_misses
  in
  let cold = rewrite ~ir_cache ~infer:true b in
  Alcotest.(check bool) "cold miss = plain under --infer" true
    (Bytes.equal (out plain) (out cold));
  Alcotest.(check int) "cold run misses" 1 (misses cold);
  let warm = rewrite ~ir_cache ~infer:true b in
  Alcotest.(check bool) "warm hit = plain under --infer" true
    (Bytes.equal (out plain) (out warm));
  Alcotest.(check int) "warm served by the IR cache" 1 (hits warm);
  (* The same cache must keep serving the refiner-off variant from a
     distinct key: bytes differ from the --infer build, never mix. *)
  let off = rewrite ~ir_cache ~infer:false b in
  Alcotest.(check int) "off variant keyed separately" 1 (misses off);
  Alcotest.(check bool) "off variant = plain --infer-off rewrite" true
    (Bytes.equal (out off) (out (rewrite ~infer:false b)))

(* -- the differential soundness gate -- *)

let take n xs =
  let rec go i = function x :: tl when i < n -> x :: go (i + 1) tl | _ -> [] in
  go 0 xs

let test_differential_adversarial () =
  List.iter
    (fun (spec : Workloads.Synthetic.spec) ->
      let b = spec.Workloads.Synthetic.binary in
      let r = rewrite ~infer:true b in
      let check =
        Cgc.Poller.functional_check ~orig:b ~rewritten:r.Zipr.Pipeline.rewritten
          (take 8 spec.Workloads.Synthetic.test_suite)
      in
      Alcotest.(check int)
        (spec.Workloads.Synthetic.name ^ ": zero divergences under --infer")
        check.Cgc.Poller.total check.Cgc.Poller.passed)
    (Adv.all ())

let test_fuzz_driver_with_infer () =
  let o = { Fuzz.Driver.default_options with Fuzz.Driver.cases = 20; seed = 7; infer = true } in
  let s = Fuzz.Driver.run o in
  Alcotest.(check int) "cases" 20 s.Fuzz.Driver.cases_run;
  Alcotest.(check int) "no failures under --infer" 0 (List.length s.Fuzz.Driver.failures)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_soundness;
    QCheck_alcotest.to_alcotest prop_monotone;
    QCheck_alcotest.to_alcotest prop_terminates;
    Alcotest.test_case "byte-identity with the refiner off" `Quick test_identity_off;
    Alcotest.test_case "adversarial closure verdicts" `Quick test_adversarial_closure;
    Alcotest.test_case "overlap mismatches reported, not clamped" `Quick
      test_overlap_reported_not_clamped;
    Alcotest.test_case "pin hints reach the pin analysis" `Quick test_pin_hints_reach_ibt;
    QCheck_alcotest.to_alcotest
      (Test_cold_ir.prop_build_equals_three_sources ~infer:true
         ~name:"composes with the validated cold path");
    Alcotest.test_case "composes with the IR cache" `Slow test_composes_with_ir_cache;
    Alcotest.test_case "differential gate over the adversarial corpus" `Slow
      test_differential_adversarial;
    Alcotest.test_case "fuzz driver runs with inference on" `Slow test_fuzz_driver_with_infer;
  ]
