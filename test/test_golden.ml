(* Golden IR digests: any drift in disassembly output (verdicts,
   boundaries, tally, warnings, pins or rows) changes the digest of the
   rendering that captures it.  The recorded list lives in
   golden_snapshots.txt, which the build copies next to the test
   executable.

   The record was taken from the text snapshot codec (ZIRIR1, with an
   embedded ZIRDB2 row dump), since replaced by the binary ZIRIR2 codec.
   [reference] below reproduces that text rendering byte for byte from
   the fields of an [Ir_construction.t], so the record stays valid
   without a second codec in the library: it now pins the IR itself, and
   the binary snapshot is checked against it by restoring. *)

module Agg = Disasm.Aggregate
module Db = Irdb.Db
module Ir = Zipr.Ir_construction

let reason_code = function
  | Analysis.Ibt.Entry -> 0
  | Analysis.Ibt.Data_scan -> 1
  | Analysis.Ibt.Code_immediate -> 2
  | Analysis.Ibt.Jump_table -> 3
  | Analysis.Ibt.After_call -> 4
  | Analysis.Ibt.Fixed_target -> 5
  | Analysis.Ibt.Fixed_fallthrough -> 6
  | Analysis.Ibt.Computed_target -> 7

let verdict_char = function Agg.Code -> 'c' | Agg.Data -> 'd' | Agg.Ambiguous -> 'a'

let hex_of_insn insn = Zipr_util.Hex.of_bytes (Zvm.Encode.to_bytes insn)

(* One [R] line of the ZIRDB2 row dump. *)
let row_line (r : Db.row) =
  let opt = function Some v -> string_of_int v | None -> "-" in
  Printf.sprintf "R %d %s %s %s %s %s %d %s\n" r.Db.id (hex_of_insn r.Db.insn)
    (opt r.Db.fallthrough) (opt r.Db.target) (opt r.Db.pinned) (opt r.Db.orig_addr)
    (if r.Db.fixed then 1 else 0)
    (opt r.Db.func)

let reference (ir : Ir.t) =
  let agg = ir.Ir.aggregate in
  let buf = Buffer.create 65536 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "ZIRIR1";
  line "B %d %d" agg.Agg.base agg.Agg.len;
  (* Verdicts, run-length encoded. *)
  Buffer.add_string buf "V";
  let i = ref 0 in
  while !i < agg.Agg.len do
    let v = agg.Agg.verdicts.(!i) in
    let j = ref !i in
    while !j < agg.Agg.len && agg.Agg.verdicts.(!j) = v do incr j done;
    Buffer.add_string buf (Printf.sprintf " %c%d" (verdict_char v) (!j - !i));
    i := !j
  done;
  Buffer.add_char buf '\n';
  Hashtbl.to_seq agg.Agg.insn_at |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (addr, (insn, len)) -> line "A %d %s %d" addr (hex_of_insn insn) len);
  let ty = agg.Agg.tally in
  line "T %d %d %d %d %d %d %d %d" ty.Agg.case1_code ty.Agg.case1_data ty.Agg.case2_disagree
    ty.Agg.case3_contradict ty.Agg.case4_low_confidence ty.Agg.overlap_len_mismatch
    ty.Agg.refined_code ty.Agg.refined_data;
  List.iter (fun (fact, n) -> line "TF %s %d" fact n) ty.Agg.refined_by_fact;
  (* Refined offsets, run-length encoded per provenance tag. *)
  let rec refined = function
    | [] -> ()
    | (off, tag) :: _ as entries ->
        let rec run n = function
          | (o, t) :: rest when o = off + n && t = tag -> run (n + 1) rest
          | rest -> (n, rest)
        in
        let n, rest = run 0 entries in
        line "R %d %d %s" off n tag;
        refined rest
  in
  refined agg.Agg.refined;
  (match agg.Agg.pin_hints with
  | [] -> ()
  | hints -> line "H %s" (String.concat "," (List.map string_of_int hints)));
  List.iter (fun w -> line "GW %s" (String.escaped w)) agg.Agg.warnings;
  List.iter (fun w -> line "W %s" (String.escaped w)) ir.Ir.warnings;
  List.iter
    (fun (addr, reasons) ->
      line "P %d %s" addr
        (String.concat "," (List.map (fun r -> string_of_int (reason_code r)) reasons)))
    (Analysis.Ibt.pins ir.Ir.pins);
  line "DB";
  let db = ir.Ir.db in
  line "ZIRDB2";
  line "E %d" (Db.entry db);
  List.iter (fun id -> Buffer.add_string buf (row_line (Db.row db id))) (Db.ids db);
  List.iter (fun (f : Db.func) -> line "F %d %s %d" f.Db.fid f.Db.fname f.Db.entry) (Db.funcs db);
  List.iter (fun addr -> line "M %d" addr) (Db.marked_pins db);
  Buffer.contents buf

let inputs () =
  List.init 50 (fun i ->
      let it = Workloads.Scale.generate_one ~seed:2016 i in
      ("scale", it.Workloads.Scale.name, false, it.Workloads.Scale.binary))
  @ List.init Cgc.Corpus.size (fun i ->
        let e = Cgc.Corpus.entry ~pollers_per_cb:0 i in
        ("cgc", e.Cgc.Corpus.name, false, e.Cgc.Corpus.binary))
  @ List.map
      (fun (s : Workloads.Adversarial.spec) ->
        ("adversarial", s.Workloads.Adversarial.name, true, s.Workloads.Adversarial.binary))
      (Workloads.Adversarial.all ())

let recorded_file name =
  let path = Filename.concat (Filename.dirname Sys.executable_name) name in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* Every input once: the digest line of its cold build, and a restore of
   its binary snapshot, which must render identically and re-snapshot
   to the same payload. *)
let test_snapshots_match () =
  let computed =
    List.map
      (fun (corpus, name, infer, binary) ->
        let ir = Ir.build ~infer binary in
        let text = reference ir in
        let snap = Ir.snapshot ir in
        (match Ir.restore binary snap with
        | Error e -> Alcotest.failf "%s %s: restore: %s" corpus name e
        | Ok ir2 ->
            if reference ir2 <> text then
              Alcotest.failf "%s %s: restored IR renders differently" corpus name;
            if Ir.snapshot ir2 <> snap then
              Alcotest.failf "%s %s: snapshot of the restore differs" corpus name);
        Printf.sprintf "%s %s %s" corpus name (Digest.to_hex (Digest.string text)))
      (inputs ())
  in
  Alcotest.(check (list string)) "snapshot digests" (recorded_file "golden_snapshots.txt") computed

(* The golden rewrite records: one line per (input, variant), the MD5 of
   [Pipeline.rewrite_bytes] on the input under the variant's config and
   transforms.  Each input's IR is built once and restored from an
   in-memory cache for its variants, which the pipeline guarantees is
   byte-identical to a cold build. *)

let cb_inputs () =
  List.init Cgc.Corpus.size (fun i ->
      let e = Cgc.Corpus.entry ~pollers_per_cb:0 i in
      ("cgc", e.Cgc.Corpus.name, e.Cgc.Corpus.binary))

let digest_lines inputs variants =
  List.concat_map
    (fun (corpus, name, binary) ->
      let bytes = Zelf.Binary.serialize binary in
      let ir_cache = Irdb.Cache.create ~capacity:1 () in
      List.map
        (fun (label, config, transforms) ->
          let digest =
            match Zipr.Pipeline.rewrite_bytes ~config ~ir_cache ~transforms bytes with
            | Ok out -> Digest.to_hex (Digest.bytes out)
            | Error e -> "error:" ^ String.map (fun c -> if c = ' ' then '_' else c) e
          in
          Printf.sprintf "%s %s %s %s" corpus name label digest)
        variants)
    inputs

let check_record ~what file computed =
  let recorded = recorded_file file in
  if List.length recorded = List.length computed then
    List.iter2
      (fun r c -> if r <> c then Printf.eprintf "golden %s: expected %s\n  got      %s\n" what r c)
      recorded computed;
  Alcotest.(check (list string)) (what ^ " digests") recorded computed

(* Golden transform digests, in golden_transforms.txt: each frame
   transform -- cfi, stack-pad, canary and shadow-stack -- alone, and
   every ordered pair of two different ones, on the 62 CBs, then versions
   0-1 of the 8 Versioned projects the versioned-delta benchmark serves
   (corpus seed 2016). *)

let frame_transforms = [ "cfi"; "stack-pad"; "canary"; "shadow-stack" ]

let chains =
  List.map (fun a -> [ a ]) frame_transforms
  @ List.concat_map
      (fun a -> List.filter_map (fun b -> if a = b then None else Some [ a; b ]) frame_transforms)
      frame_transforms

let test_transforms_match () =
  let inputs =
    cb_inputs ()
    @ List.concat
        (List.init 8 (fun p ->
             Workloads.Versioned.generate
               ~seed:(Zipr_util.Rng.derive ~corpus_seed:2016 ~index:p)
               ~versions:2 ()
             |> List.map (fun (v : Workloads.Versioned.version) ->
                    ( "versioned",
                      Printf.sprintf "p%d-%s" p v.Workloads.Versioned.name,
                      v.Workloads.Versioned.binary ))))
  and variants =
    List.map
      (fun chain ->
        ( String.concat "," chain,
          Zipr.Pipeline.default_config,
          List.filter_map Transforms.Registry.by_name chain ))
      chains
  in
  check_record ~what:"transform" "golden_transforms.txt" (digest_lines inputs variants)

(* Golden reassembly digests, in golden_reassembly.txt: Null under each
   placement strategy, on the 62 CBs and the Scale members whose dense
   pins work the colocation and pinned-page paths hardest, plus sc0372,
   sc0719 and sc0736 (corpus seed 2016). *)

let reassembly_scale_members = [ 6; 79; 145; 155; 179; 239; 472; 805; 372; 719; 736 ]

let test_reassembly_match () =
  let inputs =
    cb_inputs ()
    @ List.map
        (fun i ->
          let it = Workloads.Scale.generate_one ~seed:2016 i in
          ("scale", it.Workloads.Scale.name, it.Workloads.Scale.binary))
        reassembly_scale_members
  and variants =
    let null = Option.get (Transforms.Registry.by_name "null") in
    List.map
      (fun strategy ->
        ( strategy,
          { Zipr.Pipeline.default_config with
            placement = Option.get (Zipr.Placement.by_name strategy) },
          [ null ] ))
      Zipr.Placement.names
  in
  check_record ~what:"reassembly" "golden_reassembly.txt" (digest_lines inputs variants)

let suite =
  [
    Alcotest.test_case "snapshot digests match the record" `Quick test_snapshots_match;
    Alcotest.test_case "transform digests match the record" `Quick test_transforms_match;
    Alcotest.test_case "reassembly digests match the record" `Quick test_reassembly_match;
  ]
