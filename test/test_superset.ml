(* Tests for superset (speculative) disassembly and N-way aggregation. *)

module Insn = Zvm.Insn
module Reg = Zvm.Reg

let binary_of_text ?(entry = 0x1000) code =
  Zelf.Binary.create ~entry
    [ Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 code ]

let test_prune_kills_flow_into_garbage () =
  (* movi (6 bytes) then an undecodable byte: a candidate decoded at any
     offset that falls through into the bad byte must die; the movi
     itself, falling through into the bad byte, dies too. *)
  let buf = Buffer.create 8 in
  Buffer.add_bytes buf (Zvm.Encode.to_bytes (Insn.Movi (Reg.R0, 0x11111111)));
  Buffer.add_char buf '\x05';  (* not an opcode *)
  let binary = binary_of_text (Buffer.to_bytes buf) in
  let alive = Disasm.Superset.prune_fixpoint binary in
  Alcotest.(check bool) "movi flowing into garbage dies" false alive.(0);
  Alcotest.(check bool) "garbage byte has no candidate" false alive.(6)

let test_prune_keeps_terminated_chains () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Ret ] in
  let binary = binary_of_text code in
  let alive = Disasm.Superset.prune_fixpoint binary in
  Alcotest.(check bool) "movi alive" true alive.(0);
  Alcotest.(check bool) "ret alive" true alive.(6)

let test_superset_abstains_on_recursive_territory () =
  let code = Zvm.Encode.encode_all Insn.[ Movi (Reg.R0, 1); Ret ] in
  let binary = binary_of_text code in
  let rec_ = Disasm.Recursive.traverse binary in
  let src = Disasm.Superset.run binary ~avoid:rec_ in
  (* Recursive reaches everything here, so superset must claim nothing. *)
  Array.iter
    (fun c -> Alcotest.(check bool) "abstains" true (c = Disasm.Source.Unknown))
    src.Disasm.Source.claims

let test_superset_tiles_unreachable_code () =
  (* Code after a halt: recursive never reaches it; superset should
     produce clean boundaries for it. *)
  let code =
    Zvm.Encode.encode_all Insn.[ Halt; Movi (Reg.R7, 42); Alui (Addi, Reg.R7, 1); Ret ]
  in
  let binary = binary_of_text code in
  let rec_ = Disasm.Recursive.traverse binary in
  let src = Disasm.Superset.run binary ~avoid:rec_ in
  (* The movi at offset 1 must be claimed with the right boundary. *)
  (match src.Disasm.Source.claims.(1) with
  | Disasm.Source.Code start -> Alcotest.(check int) "boundary" 0x1001 start
  | _ -> Alcotest.fail "dead code not tiled");
  Alcotest.(check bool) "boundary recorded" true
    (Hashtbl.mem src.Disasm.Source.insns 0x1001)

let test_three_way_run_equivalent_verdicts () =
  (* Adding the superset source must not change byte verdicts relative to
     the classic two-way aggregation (it abstains from contested calls). *)
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let lin = Disasm.Linear.sweep binary in
  let rec_ = Disasm.Recursive.traverse binary in
  let two = Disasm.Aggregate.combine binary lin rec_ in
  let three = Disasm.Aggregate.run binary in
  Alcotest.(check bool) "same verdicts" true
    (two.Disasm.Aggregate.verdicts = three.Disasm.Aggregate.verdicts)

let test_combine_sources_requires_high_confidence () =
  (* A lone low-confidence code claim must be ambiguous, not code. *)
  let code = Zvm.Encode.encode_all Insn.[ Nop; Ret ] in
  let binary = binary_of_text code in
  let lin = Disasm.Linear.sweep binary in
  let agg = Disasm.Aggregate.combine_sources binary [ Disasm.Source.of_linear lin ] in
  let _, _, amb = Disasm.Aggregate.stats agg in
  Alcotest.(check int) "all ambiguous" 2 amb

let test_combine_sources_mismatch_rejected () =
  let b1 = binary_of_text (Zvm.Encode.encode_all [ Insn.Ret ]) in
  let b2 = binary_of_text (Zvm.Encode.encode_all Insn.[ Nop; Ret ]) in
  let s1 = Disasm.Source.of_linear (Disasm.Linear.sweep b1) in
  let s2 = Disasm.Source.of_linear (Disasm.Linear.sweep b2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disasm.Aggregate.combine_sources b1 [ s1; s2 ]);
       false
     with Invalid_argument _ -> true)

let test_superset_improves_fixed_region_boundaries () =
  (* The island program's hidden code is recursive-unreachable; with the
     superset source in play the aggregate still classifies it ambiguous
     (conservative), and boundaries exist for its instructions. *)
  let binary, symbols = Testprogs.island_binary () in
  let agg = Disasm.Aggregate.run binary in
  let hidden = List.assoc "hidden" symbols in
  (match Disasm.Aggregate.verdict_at agg hidden with
  | Some Disasm.Aggregate.Ambiguous -> ()
  | v ->
      Alcotest.failf "hidden code verdict: %s"
        (match v with
        | Some x -> Format.asprintf "%a" Disasm.Aggregate.pp_verdict x
        | None -> "none"));
  Alcotest.(check bool) "hidden boundary known" true
    (Hashtbl.mem agg.Disasm.Aggregate.insn_at hidden)

(* The overlap accounting as a sort over every boundary of every primary
   source: the reference the aggregation's offset sweep must reproduce,
   count and warnings alike. *)
let sorted_overlap_mismatches (primaries : Disasm.Source.t list) =
  let boundaries =
    List.concat_map
      (fun (s : Disasm.Source.t) ->
        Hashtbl.fold
          (fun addr (_, ilen) acc -> (addr, ilen, s.Disasm.Source.name) :: acc)
          s.Disasm.Source.insns [])
      primaries
    |> List.sort compare
  in
  let count = ref 0 and warnings = ref [] in
  let active = ref [] in
  List.iter
    (fun (addr, ilen, name) ->
      active := List.filter (fun (a, l, _) -> a + l > addr) !active;
      List.iter
        (fun (a, l, n) ->
          if l <> ilen && not (a = addr && n = name) then begin
            incr count;
            warnings :=
              Printf.sprintf
                "overlapping instruction claims of different lengths: %s@0x%x+%d vs %s@0x%x+%d"
                n a l name addr ilen
              :: !warnings
          end)
        !active;
      active := (addr, ilen, name) :: !active)
    boundaries;
  (!count, List.rev !warnings)

(* Primary sources that claim nothing per byte, so every warning of the
   aggregation is an overlap warning; few names and short texts, so
   boundaries at one address with different lengths and names are
   common. *)
type overlap_case = { base : int; len : int; srcs : (string * bool * (int * int) list) list }

let gen_overlap_case =
  let open QCheck.Gen in
  let* len = int_range 1 40 in
  let* base = oneofl [ 0x1000; 0x40_0000 ] in
  let source =
    let* name = oneofl [ "linear-sweep"; "superset"; "recursive-traversal"; "x" ] in
    let* high = bool in
    let* bounds = list_size (int_range 0 len) (pair (int_range 0 (len - 1)) (int_range 1 8)) in
    return (name, high, bounds)
  in
  let* srcs = list_size (int_range 1 4) source in
  return { base; len; srcs }

let print_overlap_case c =
  Printf.sprintf "base=0x%x len=%d %s" c.base c.len
    (String.concat "; "
       (List.map
          (fun (name, high, bounds) ->
            Printf.sprintf "%s%s[%s]" name
              (if high then "(high)" else "")
              (String.concat " " (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) bounds)))
          c.srcs))

let sources_of_case c =
  List.map
    (fun (name, high, bounds) ->
      let insns = Hashtbl.create 8 in
      List.iter (fun (off, ilen) -> Hashtbl.replace insns (c.base + off) (Insn.Nop, ilen)) bounds;
      {
        Disasm.Source.name;
        base = c.base;
        len = c.len;
        claims = Array.make c.len Disasm.Source.Unknown;
        insns;
        confidence = (if high then Disasm.Source.High else Disasm.Source.Low);
        kind = Disasm.Source.Primary;
        tags = [||];
      })
    c.srcs

let test_qcheck_overlap_sweep_matches_sort =
  QCheck.Test.make ~name:"overlap sweep equals the sorted reference" ~count:500
    (QCheck.make ~print:print_overlap_case gen_overlap_case)
    (fun c ->
      let binary =
        Zelf.Binary.create ~entry:c.base
          [ Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:c.base (Bytes.make c.len '\x90') ]
      in
      let sources = sources_of_case c in
      let agg = Disasm.Aggregate.combine_sources binary sources in
      let count, warnings = sorted_overlap_mismatches sources in
      agg.Disasm.Aggregate.tally.Disasm.Aggregate.overlap_len_mismatch = count
      && agg.Disasm.Aggregate.warnings = warnings)

let test_combine_sources_rejects_boundary_outside_text () =
  let c = { base = 0x1000; len = 4; srcs = [ ("superset", true, []) ] } in
  let binary = binary_of_text (Bytes.make 4 '\x90') in
  let src = List.hd (sources_of_case c) in
  Hashtbl.replace src.Disasm.Source.insns 0x1004 (Insn.Nop, 1);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Disasm.Aggregate.combine_sources binary [ src ]);
       false
     with Invalid_argument _ -> true)

let test_qcheck_seed_order_matches_sort =
  let gen =
    let open QCheck.Gen in
    let* len = int_range 0 200 in
    let* top = oneofl [ 0; 1; 3; 50 ] in
    let* alive = array_repeat len bool in
    let* score = array_repeat len (int_range 0 top) in
    return (alive, score)
  in
  let print (alive, score) =
    String.concat " "
      (Array.to_list
         (Array.mapi (fun i a -> Printf.sprintf "%d%s" score.(i) (if a then "" else "x")) alive))
  in
  QCheck.Test.make ~name:"seed order equals the score sort" ~count:300 (QCheck.make ~print gen)
    (fun (alive, score) ->
      let sorted =
        List.init (Array.length alive) Fun.id
        |> List.filter (fun off -> alive.(off))
        |> List.sort (fun a b -> compare (score.(b), a) (score.(a), b))
      in
      Array.to_list (Disasm.Superset.seed_order ~alive ~score) = sorted)

let suite =
  [
    Alcotest.test_case "prune kills bad flow" `Quick test_prune_kills_flow_into_garbage;
    Alcotest.test_case "prune keeps chains" `Quick test_prune_keeps_terminated_chains;
    Alcotest.test_case "abstains where recursive reaches" `Quick
      test_superset_abstains_on_recursive_territory;
    Alcotest.test_case "tiles unreachable code" `Quick test_superset_tiles_unreachable_code;
    Alcotest.test_case "three-way verdicts stable" `Quick test_three_way_run_equivalent_verdicts;
    Alcotest.test_case "low confidence insufficient" `Quick
      test_combine_sources_requires_high_confidence;
    Alcotest.test_case "mismatched sources rejected" `Quick test_combine_sources_mismatch_rejected;
    Alcotest.test_case "fixed-region boundaries" `Quick test_superset_improves_fixed_region_boundaries;
    QCheck_alcotest.to_alcotest test_qcheck_overlap_sweep_matches_sort;
    Alcotest.test_case "boundary outside the text rejected" `Quick
      test_combine_sources_rejects_boundary_outside_text;
    QCheck_alcotest.to_alcotest test_qcheck_seed_order_matches_sort;
  ]
