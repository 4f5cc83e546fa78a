(* Tests for the zipr_util support library. *)

module Rng = Zipr_util.Rng
module Bytebuf = Zipr_util.Bytebuf
module Iset = Zipr_util.Interval_set
module Hex = Zipr_util.Hex
module Histogram = Zipr_util.Histogram
module Stats = Zipr_util.Stats
module Json = Zipr_util.Json

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in closed range" true (w >= 5 && w <= 9)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_bytebuf_roundtrip () =
  let b = Bytebuf.create () in
  Bytebuf.u8 b 0xab;
  Bytebuf.u16 b 0x1234;
  Bytebuf.u32 b 0xdeadbeef;
  Alcotest.(check int) "length" 7 (Bytebuf.length b);
  Alcotest.(check int) "u8" 0xab (Bytebuf.get_u8 b 0);
  Alcotest.(check int) "u32" 0xdeadbeef (Bytebuf.get_u32 b 3)

let test_bytebuf_patch () =
  let b = Bytebuf.create () in
  Bytebuf.u32 b 0;
  Bytebuf.u32 b 0;
  Bytebuf.patch_u32 b 4 0xcafebabe;
  Alcotest.(check int) "patched" 0xcafebabe (Bytebuf.get_u32 b 4);
  Alcotest.(check int) "untouched" 0 (Bytebuf.get_u32 b 0)

let test_bytebuf_patch_out_of_range () =
  let b = Bytebuf.create () in
  Bytebuf.u8 b 1;
  Alcotest.check_raises "patch past end" (Invalid_argument "Bytebuf: position 0+4 out of range [0,1)")
    (fun () -> Bytebuf.patch_u32 b 0 5)

let test_bytebuf_i32_negative () =
  let b = Bytebuf.create () in
  Bytebuf.i32 b (-2);
  Alcotest.(check int) "two's complement" 0xfffffffe (Bytebuf.get_u32 b 0)

let test_iset_add_coalesce () =
  let s = Iset.empty in
  let s = Iset.add s ~lo:10 ~hi:20 in
  let s = Iset.add s ~lo:20 ~hi:30 in
  Alcotest.(check (list (pair int int))) "coalesced" [ (10, 30) ] (Iset.intervals s);
  let s = Iset.add s ~lo:5 ~hi:12 in
  Alcotest.(check (list (pair int int))) "extended" [ (5, 30) ] (Iset.intervals s)

let test_iset_remove_split () =
  let s = Iset.add Iset.empty ~lo:0 ~hi:100 in
  let s = Iset.remove s ~lo:40 ~hi:60 in
  Alcotest.(check (list (pair int int))) "split" [ (0, 40); (60, 100) ] (Iset.intervals s);
  Alcotest.(check int) "total" 80 (Iset.total s)

let test_iset_mem () =
  let s = Iset.add (Iset.add Iset.empty ~lo:0 ~hi:10) ~lo:20 ~hi:30 in
  Alcotest.(check bool) "in first" true (Iset.mem s 5);
  Alcotest.(check bool) "gap" false (Iset.mem s 15);
  Alcotest.(check bool) "boundary lo" true (Iset.mem s 20);
  Alcotest.(check bool) "boundary hi" false (Iset.mem s 30)

let test_iset_contains_range () =
  let s = Iset.add Iset.empty ~lo:10 ~hi:20 in
  Alcotest.(check bool) "inside" true (Iset.contains_range s ~lo:12 ~hi:18);
  Alcotest.(check bool) "exact" true (Iset.contains_range s ~lo:10 ~hi:20);
  Alcotest.(check bool) "spills" false (Iset.contains_range s ~lo:15 ~hi:25)

let test_iset_first_fit () =
  let s = Iset.add (Iset.add Iset.empty ~lo:0 ~hi:4) ~lo:10 ~hi:100 in
  Alcotest.(check (option int)) "skips small gap" (Some 10) (Iset.first_fit s ~size:8);
  Alcotest.(check (option int)) "uses small gap" (Some 0) (Iset.first_fit s ~size:3);
  Alcotest.(check (option int)) "none" None (Iset.first_fit s ~size:1000)

let test_iset_fit_in_window () =
  let s = Iset.add Iset.empty ~lo:50 ~hi:200 in
  Alcotest.(check (option int)) "window hit" (Some 60) (Iset.fit_in_window s ~lo:60 ~hi:80 ~size:10);
  Alcotest.(check (option int)) "window too small" None
    (Iset.fit_in_window s ~lo:60 ~hi:65 ~size:10);
  Alcotest.(check (option int)) "clamped to member" (Some 50)
    (Iset.fit_in_window s ~lo:0 ~hi:100 ~size:10)

let test_iset_best_fit_near () =
  let s = Iset.add (Iset.add Iset.empty ~lo:0 ~hi:20) ~lo:1000 ~hi:1020 in
  Alcotest.(check (option int)) "near low" (Some 10) (Iset.best_fit_near s ~center:10 ~size:5);
  Alcotest.(check (option int)) "near high" (Some 1000) (Iset.best_fit_near s ~center:990 ~size:5)

let test_iset_qcheck_total =
  QCheck.Test.make ~name:"interval add/remove preserves point membership" ~count:500
    QCheck.(
      pair (small_list (pair (int_bound 200) (int_bound 50))) (small_list (pair (int_bound 200) (int_bound 50))))
    (fun (adds, removes) ->
      let model = Array.make 300 false in
      let s = ref Zipr_util.Interval_set.empty in
      List.iter
        (fun (lo, len) ->
          s := Zipr_util.Interval_set.add !s ~lo ~hi:(lo + len);
          for i = lo to lo + len - 1 do
            model.(i) <- true
          done)
        adds;
      List.iter
        (fun (lo, len) ->
          s := Zipr_util.Interval_set.remove !s ~lo ~hi:(lo + len);
          for i = lo to lo + len - 1 do
            model.(i) <- false
          done)
        removes;
      let ok = ref true in
      for i = 0 to 299 do
        if Zipr_util.Interval_set.mem !s i <> model.(i) then ok := false
      done;
      !ok)

let test_hex_roundtrip () =
  let b = Bytes.of_string "\x00\x01\xfe\xff" in
  Alcotest.(check string) "encode" "0001feff" (Hex.of_bytes b);
  Alcotest.(check bytes) "decode" b (Hex.to_bytes "0001feff")

let test_histogram_bins () =
  let h = Histogram.paper_bins () in
  List.iter (Histogram.add h) [ -1.0; 2.0; 3.0; 7.0; 15.0; 30.0; 80.0 ];
  Alcotest.(check (array int)) "bin counts" [| 1; 2; 1; 1; 1; 1 |] (Histogram.counts h);
  Alcotest.(check int) "total" 7 (Histogram.count h)

let test_histogram_labels () =
  let h = Histogram.paper_bins () in
  Alcotest.(check (list string)) "labels"
    [ "< 0%"; "0-5%"; "5-10%"; "10-20%"; "20-50%"; ">= 50%" ]
    (Histogram.labels h)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "overhead" 50.0 (Stats.overhead_pct ~baseline:2.0 ~measured:3.0);
  Alcotest.(check (float 1e-9)) "overhead zero base" 0.0 (Stats.overhead_pct ~baseline:0.0 ~measured:3.0)

let test_stats_edge_cases () =
  (* Empty inputs never divide by zero. *)
  Alcotest.(check (float 1e-9)) "mean []" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "stddev []" 0.0 (Stats.stddev []);
  Alcotest.(check (float 1e-9)) "stddev [x]" 0.0 (Stats.stddev [ 3.0 ]);
  Alcotest.(check (float 1e-9)) "median []" 0.0 (Stats.median []);
  Alcotest.(check (float 1e-9)) "percentile []" 0.0 (Stats.percentile [] 50.0);
  (* Nearest-rank percentile: p=0 clamps to the minimum, p=100 is the
     maximum, and a single element answers every p. *)
  let xs = [ 5.0; 1.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50 = median elem" 3.0 (Stats.percentile xs 50.0);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "singleton p%g" p)
        7.0
        (Stats.percentile [ 7.0 ] p))
    [ 0.0; 37.5; 100.0 ];
  (* geomean_ratio ignores non-positive pairs instead of poisoning the
     log; all-nonpositive input answers the neutral ratio 1.0. *)
  Alcotest.(check (float 1e-9)) "geomean neutral" 1.0 (Stats.geomean_ratio []);
  Alcotest.(check (float 1e-9)) "geomean skips nonpositive" 2.0
    (Stats.geomean_ratio [ (1.0, 2.0); (0.0, 5.0); (-3.0, 4.0); (2.0, 0.0) ]);
  Alcotest.(check (float 1e-9)) "geomean all nonpositive" 1.0
    (Stats.geomean_ratio [ (0.0, 0.0); (-1.0, -2.0) ])

let test_percentile_qcheck =
  QCheck.Test.make ~name:"percentile is monotone in p and a list member" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 20) (float_bound_inclusive 100.0))
              (list_of_size Gen.(2 -- 6) (float_bound_inclusive 100.0)))
    (fun (xs, ps) ->
      let ps = List.sort compare ps in
      let vals = List.map (Stats.percentile xs) ps in
      let rec monotone = function
        | a :: (b :: _ as tl) -> a <= b && monotone tl
        | _ -> true
      in
      monotone vals && List.for_all (fun v -> List.mem v xs) vals)

let test_histogram_paper_bin_boundaries () =
  (* Boundary samples land in the bin whose label contains them: edges
     are half-open [lo, hi), negatives fall below the first edge. *)
  let h = Histogram.paper_bins () in
  List.iter (Histogram.add h)
    [ -0.0001; 0.0; 4.999; 5.0; 10.0; 20.0; 50.0; 1e9 ];
  Alcotest.(check (array int)) "boundary samples" [| 1; 2; 1; 1; 1; 2 |] (Histogram.counts h);
  Alcotest.(check int) "total" 8 (Histogram.count h)

let test_histogram_bin_qcheck =
  QCheck.Test.make ~name:"histogram bins partition the line" ~count:300
    QCheck.(float_range (-100.0) 200.0)
    (fun x ->
      let h = Histogram.paper_bins () in
      Histogram.add h x;
      let counts = Histogram.counts h in
      let hits = Array.fold_left ( + ) 0 counts in
      (* Exactly one bin, and the right one given the edges. *)
      let edges = [| 0.0; 5.0; 10.0; 20.0; 50.0 |] in
      let expected =
        let rec go i =
          if i >= Array.length edges then i else if x < edges.(i) then i else go (i + 1)
        in
        go 0
      in
      hits = 1 && counts.(expected) = 1)

(* The one JSON writer: escaping, nesting, number format and layout. *)
let test_json_emitter () =
  let v =
    Json.Obj
      [
        ("s", String "q\"b\\c\x01\x1f");
        ("n", Int (-42));
        ("f", Fixed (3, 2.5));
        ("neg", Fixed (2, -3.14159));
        ("nan", Fixed (1, Float.nan));
        ( "nested",
          Obj [ ("l", List [ Int 1; Obj [ ("deep", List [ Bool true; String "" ]) ] ]); ("e", List []) ]
        );
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check string)
    "rendering"
    {|{
  "s": "q\"b\\c\u0001\u001f",
  "n": -42,
  "f": 2.500,
  "neg": -3.14,
  "nan": null,
  "nested": {
    "l": [1, {"deep": [true, ""]}],
    "e": []
  }
}
|}
    s;
  Alcotest.(check bool) "valid JSON" true (Json_check.is_valid s)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "bytebuf roundtrip" `Quick test_bytebuf_roundtrip;
    Alcotest.test_case "bytebuf patch" `Quick test_bytebuf_patch;
    Alcotest.test_case "bytebuf patch range" `Quick test_bytebuf_patch_out_of_range;
    Alcotest.test_case "bytebuf i32" `Quick test_bytebuf_i32_negative;
    Alcotest.test_case "interval coalesce" `Quick test_iset_add_coalesce;
    Alcotest.test_case "interval remove" `Quick test_iset_remove_split;
    Alcotest.test_case "interval mem" `Quick test_iset_mem;
    Alcotest.test_case "interval contains_range" `Quick test_iset_contains_range;
    Alcotest.test_case "interval first_fit" `Quick test_iset_first_fit;
    Alcotest.test_case "interval window fit" `Quick test_iset_fit_in_window;
    Alcotest.test_case "interval best_fit_near" `Quick test_iset_best_fit_near;
    QCheck_alcotest.to_alcotest test_iset_qcheck_total;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "histogram bins" `Quick test_histogram_bins;
    Alcotest.test_case "histogram labels" `Quick test_histogram_labels;
    Alcotest.test_case "histogram boundaries" `Quick test_histogram_paper_bin_boundaries;
    QCheck_alcotest.to_alcotest test_histogram_bin_qcheck;
    Alcotest.test_case "stats basics" `Quick test_stats_basics;
    Alcotest.test_case "stats edge cases" `Quick test_stats_edge_cases;
    QCheck_alcotest.to_alcotest test_percentile_qcheck;
    Alcotest.test_case "json emitter" `Quick test_json_emitter;
  ]
