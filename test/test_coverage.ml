(* Focused coverage for small APIs not exercised elsewhere. *)

module Insn = Zvm.Insn
module Reg = Zvm.Reg
module Cond = Zvm.Cond

(* -- Codebuf -- *)

let test_codebuf_regions () =
  let cb = Zipr.Codebuf.create ~text_lo:0x1000 ~text_hi:0x1100 ~overflow_base:0x8000 in
  Zipr.Codebuf.write32 cb 0x1000 0xdeadbeef;
  Alcotest.(check int) "text readback" 0xef (Zipr.Codebuf.read8 cb 0x1000);
  Zipr.Codebuf.write8 cb 0x8005 0x42;
  Alcotest.(check int) "overflow readback" 0x42 (Zipr.Codebuf.read8 cb 0x8005);
  Alcotest.(check int) "high-water" 6 (Zipr.Codebuf.overflow_used cb);
  Alcotest.(check int) "text image size" 0x100 (Bytes.length (Zipr.Codebuf.text_image cb));
  Alcotest.(check int) "overflow image" 6 (Bytes.length (Zipr.Codebuf.overflow_image cb));
  Alcotest.(check bool) "outside regions rejected" true
    (try
       Zipr.Codebuf.write8 cb 0x2000 1;
       false
     with Invalid_argument _ -> true)

let test_codebuf_write_insn () =
  let cb = Zipr.Codebuf.create ~text_lo:0 ~text_hi:64 ~overflow_base:0x1000 in
  let len = Zipr.Codebuf.write_insn cb 0 (Insn.Movi (Reg.R1, 0x1234)) in
  Alcotest.(check int) "length" 6 len;
  Alcotest.(check int) "opcode" 0x10 (Zipr.Codebuf.read8 cb 0)

(* -- Encode error paths -- *)

let test_encode_short_branch_range () =
  Alcotest.(check bool) "out-of-range short rejected" true
    (try
       ignore (Zvm.Encode.to_bytes (Insn.Jmp (Insn.Short, 1000)));
       false
     with Invalid_argument _ -> true)

(* -- Binary geometry -- *)

let test_binary_bounds () =
  let b =
    Zelf.Binary.create ~entry:0x1000
      [
        Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 (Bytes.make 16 'x');
        Zelf.Section.make_bss ~name:".bss" ~vaddr:0x4000 ~size:32;
      ]
  in
  Alcotest.(check int) "min vaddr" 0x1000 (Zelf.Binary.min_vaddr b);
  Alcotest.(check int) "max vend" 0x4020 (Zelf.Binary.max_vend b)

(* -- Cond algebra -- *)

let test_cond_negate_involution () =
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Cond.to_string c ^ " double negation")
        true
        (Cond.equal c (Cond.negate (Cond.negate c)));
      (* negation flips evaluation on every flag combination *)
      List.iter
        (fun (eq, lt, ult) ->
          Alcotest.(check bool) "opposite" true
            (Cond.eval c ~eq ~lt ~ult <> Cond.eval (Cond.negate c) ~eq ~lt ~ult))
        [ (false, false, false); (true, false, false); (false, true, true); (true, false, true) ])
    Cond.all

let test_reg_string_roundtrip () =
  Array.iter
    (fun r ->
      Alcotest.(check bool) (Reg.to_string r) true (Reg.of_string (Reg.to_string r) = Some r))
    Reg.all;
  Alcotest.(check bool) "bad name" true (Reg.of_string "r9" = None)

(* -- Interval set odds and ends -- *)

let test_interval_largest_and_fold () =
  let module I = Zipr_util.Interval_set in
  let s = I.add (I.add I.empty ~lo:0 ~hi:10) ~lo:100 ~hi:150 in
  Alcotest.(check (option (pair int int))) "largest" (Some (100, 150)) (I.largest s);
  let total = I.fold (fun lo hi acc -> acc + (hi - lo)) s 0 in
  Alcotest.(check int) "fold total" (I.total s) total

(* -- Histogram rendering -- *)

let test_histogram_render () =
  let h = Zipr_util.Histogram.paper_bins () in
  Zipr_util.Histogram.add h 3.0;
  let s = Zipr_util.Histogram.render h ~title:"t" in
  Alcotest.(check bool) "title present" true (String.length s > 10 && s.[0] = 't')

(* -- Insn misc -- *)

let test_with_displacement () =
  let j = Insn.with_displacement (Insn.Jmp (Insn.Near, 0)) 42 in
  Alcotest.(check bool) "set" true (j = Insn.Jmp (Insn.Near, 42));
  Alcotest.(check bool) "non-branch rejected" true
    (try
       ignore (Insn.with_displacement Insn.Nop 1);
       false
     with Invalid_argument _ -> true)

let test_reads_pc_classification () =
  Alcotest.(check bool) "leap" true (Insn.reads_pc (Insn.Leap (Reg.R0, 4)));
  Alcotest.(check bool) "loada not" false (Insn.reads_pc (Insn.Loada (Reg.R0, 4)))

(* -- Score corner -- *)

let test_score_no_pollers () =
  let binary, meta = Cgc.Cb_gen.generate ~seed:9 Cgc.Cb_gen.default_profile in
  let e =
    Cgc.Score.evaluate ~name:"x" ~orig:binary ~orig_runs:[] ~rewritten:binary ~meta ~pollers:[]
  in
  Alcotest.(check (float 1e-9)) "functionality defaults" 1.0 e.Cgc.Score.functionality

let suite =
  [
    Alcotest.test_case "codebuf regions" `Quick test_codebuf_regions;
    Alcotest.test_case "codebuf write_insn" `Quick test_codebuf_write_insn;
    Alcotest.test_case "encode range" `Quick test_encode_short_branch_range;
    Alcotest.test_case "binary bounds" `Quick test_binary_bounds;
    Alcotest.test_case "cond negate" `Quick test_cond_negate_involution;
    Alcotest.test_case "reg strings" `Quick test_reg_string_roundtrip;
    Alcotest.test_case "interval largest/fold" `Quick test_interval_largest_and_fold;
    Alcotest.test_case "histogram render" `Quick test_histogram_render;
    Alcotest.test_case "with_displacement" `Quick test_with_displacement;
    Alcotest.test_case "reads_pc" `Quick test_reads_pc_classification;
    Alcotest.test_case "score no pollers" `Quick test_score_no_pollers;
  ]
