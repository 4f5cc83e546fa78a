(* The incremental (delta) IR path: chunking, routine-fragment caching,
   stitching, and the byte-identity contract against the cold pipeline. *)

module Chunker = Disasm.Chunker
module Versioned = Workloads.Versioned

let serialize b = Zelf.Binary.serialize b

let transforms = [ Transforms.Cfi.transform; Transforms.Stack_pad.transform ]

let rewrite ?routine_cache binary =
  match Zipr.Pipeline.try_rewrite ?routine_cache ~transforms binary with
  | Ok r -> r
  | Error m -> Alcotest.failf "rewrite failed: %s" m

let out (r : Zipr.Pipeline.result) = serialize r.Zipr.Pipeline.rewritten

(* -- versioned workload -- *)

let test_versioned_deterministic () =
  let a = Versioned.generate ~seed:5 ~versions:3 () in
  let b = Versioned.generate ~seed:5 ~versions:3 () in
  List.iter2
    (fun (x : Versioned.version) (y : Versioned.version) ->
      Alcotest.(check bool)
        ("version " ^ x.Versioned.name ^ " reproducible")
        true
        (Bytes.equal (serialize x.Versioned.binary) (serialize y.Versioned.binary)))
    a b;
  let c = Versioned.generate ~seed:6 ~versions:3 () in
  Alcotest.(check bool) "seed changes bytes" false
    (Bytes.equal
       (serialize (List.hd a).Versioned.binary)
       (serialize (List.hd c).Versioned.binary));
  List.iteri
    (fun i (v : Versioned.version) ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d edit list %s" i (if i = 0 then "empty" else "non-empty"))
        (i = 0)
        (v.Versioned.edits = []))
    a

(* -- chunker invariants -- *)

let test_chunker_tiles () =
  List.iter
    (fun (v : Versioned.version) ->
      let scan = Chunker.scan v.Versioned.binary in
      let pos = ref scan.Chunker.base in
      Array.iter
        (fun (c : Chunker.chunk) ->
          Alcotest.(check int) "chunks tile without gaps" !pos c.Chunker.lo;
          Alcotest.(check bool) "chunk is non-empty" true (c.Chunker.hi > c.Chunker.lo);
          pos := c.Chunker.hi)
        scan.Chunker.chunks;
      Alcotest.(check int) "tiling ends at text end"
        (scan.Chunker.base + scan.Chunker.len)
        !pos)
    (Versioned.generate ~seed:9 ~versions:2 ())

(* Cuts must never land inside an instruction of the linear framing:
   a mid-instruction cut would make every stitch over the chunk pair
   fall back, permanently. *)
let test_chunker_cuts_on_framing () =
  let v = List.hd (Versioned.generate ~seed:9 ~versions:1 ()) in
  let binary = v.Versioned.binary in
  let scan = Chunker.scan binary in
  let fetch a = Zelf.Binary.read8 binary a in
  let hi = scan.Chunker.base + scan.Chunker.len in
  let cuts =
    Array.to_list scan.Chunker.chunks |> List.map (fun (c : Chunker.chunk) -> c.Chunker.lo)
  in
  (* Replay the framing pass, recording every decode-attempt offset. *)
  let attempts = Hashtbl.create 1024 in
  let pos = ref scan.Chunker.base in
  while !pos < hi do
    Hashtbl.replace attempts !pos ();
    match Zvm.Decode.decode ~fetch !pos with
    | Ok (_, ilen) when !pos + ilen <= hi -> pos := !pos + ilen
    | Ok _ | Error _ -> incr pos
  done;
  List.iter
    (fun cut ->
      Alcotest.(check bool)
        (Printf.sprintf "cut %#x is a framing boundary" cut)
        true
        (Hashtbl.mem attempts cut))
    cuts

(* -- delta pipeline: identity, hits, no poisoning -- *)

let test_delta_byte_identity_and_hits () =
  let vs = Versioned.generate ~seed:3 ~versions:4 () in
  let dc = Zipr.Delta.create () in
  List.iteri
    (fun i (v : Versioned.version) ->
      let plain = rewrite v.Versioned.binary in
      let cached = rewrite ~routine_cache:dc v.Versioned.binary in
      Alcotest.(check bool)
        (Printf.sprintf "v%d cached output byte-identical" i)
        true
        (Bytes.equal (out plain) (out cached));
      let c = cached.Zipr.Pipeline.cache in
      if i = 0 then
        Alcotest.(check int) "v0 has no hits" 0 c.Zipr.Pipeline.routine_hits
      else begin
        Alcotest.(check bool)
          (Printf.sprintf "v%d hits the routine cache" i)
          true
          (c.Zipr.Pipeline.routine_hits > 0);
        Alcotest.(check int)
          (Printf.sprintf "v%d is a delta build" i)
          1 c.Zipr.Pipeline.delta_builds
      end)
    vs

(* A single edited routine must not poison its unedited neighbours: the
   misses on the next version are bounded by a small constant (the edited
   chunk, plus the chunk whose decode lookahead straddles the cut),
   not proportional to the routine count. *)
let test_edit_locality () =
  let vs = Versioned.generate ~seed:13 ~versions:2 ~edits_per_version:1 () in
  let v0 = List.nth vs 0 and v1 = List.nth vs 1 in
  let dc = Zipr.Delta.create () in
  ignore (rewrite ~routine_cache:dc v0.Versioned.binary);
  let r1 = rewrite ~routine_cache:dc v1.Versioned.binary in
  let c = r1.Zipr.Pipeline.cache in
  let n1 = Array.length (Chunker.scan v1.Versioned.binary).Chunker.chunks in
  Alcotest.(check int) "one lookup per chunk" n1
    (c.Zipr.Pipeline.routine_hits + c.Zipr.Pipeline.routine_misses);
  Alcotest.(check bool)
    (Printf.sprintf "misses bounded (%d misses over %d chunks)"
       c.Zipr.Pipeline.routine_misses n1)
    true
    (c.Zipr.Pipeline.routine_misses <= 4 && c.Zipr.Pipeline.routine_hits >= n1 - 4)

let test_memo_warm () =
  let v = List.hd (Versioned.generate ~seed:3 ~versions:1 ()) in
  let dc = Zipr.Delta.create () in
  let cold = rewrite ~routine_cache:dc v.Versioned.binary in
  let warm = rewrite ~routine_cache:dc v.Versioned.binary in
  Alcotest.(check bool) "warm output byte-identical" true
    (Bytes.equal (out cold) (out warm));
  let c = warm.Zipr.Pipeline.cache in
  Alcotest.(check int) "warm run misses nothing" 0 c.Zipr.Pipeline.routine_misses;
  Alcotest.(check bool) "warm run hits the memo" true (c.Zipr.Pipeline.routine_hits > 0);
  Alcotest.(check int) "memo entry resident" 1 (Zipr.Delta.memo_entries dc)

(* Fragments survive a process boundary: a fresh delta cache sharing only
   the disk directory (the memo is memory-only) stitches the next version
   from on-disk fragments. *)
let test_disk_fragments () =
  let dir = Filename.temp_file "zipr_delta" "" in
  Sys.remove dir;
  let vs = Versioned.generate ~seed:21 ~versions:2 () in
  let v0 = List.nth vs 0 and v1 = List.nth vs 1 in
  let dc1 = Zipr.Delta.create ~dir () in
  ignore (rewrite ~routine_cache:dc1 v0.Versioned.binary);
  let dc2 = Zipr.Delta.create ~dir () in
  let plain = rewrite v1.Versioned.binary in
  let cached = rewrite ~routine_cache:dc2 v1.Versioned.binary in
  Alcotest.(check bool) "disk-stitched output byte-identical" true
    (Bytes.equal (out plain) (out cached));
  let c = cached.Zipr.Pipeline.cache in
  Alcotest.(check bool) "fresh cache hits via disk" true
    (c.Zipr.Pipeline.routine_hits > 0);
  Alcotest.(check int) "stitched, not rebuilt" 1 c.Zipr.Pipeline.delta_builds

(* A corrupted disk fragment must read as a miss, never poison a stitch:
   outputs stay identical to the cold path. *)
let test_disk_corruption_is_miss () =
  let dir = Filename.temp_file "zipr_delta" "" in
  Sys.remove dir;
  let vs = Versioned.generate ~seed:22 ~versions:2 () in
  let v0 = List.nth vs 0 and v1 = List.nth vs 1 in
  let dc1 = Zipr.Delta.create ~dir () in
  ignore (rewrite ~routine_cache:dc1 v0.Versioned.binary);
  Sys.readdir dir |> Array.to_list
  |> List.iter (fun f ->
         let p = Filename.concat dir f in
         let oc = open_out_bin p in
         output_string oc "garbage";
         close_out oc);
  let dc2 = Zipr.Delta.create ~dir () in
  let plain = rewrite v1.Versioned.binary in
  let cached = rewrite ~routine_cache:dc2 v1.Versioned.binary in
  Alcotest.(check bool) "corrupt fragments: output still identical" true
    (Bytes.equal (out plain) (out cached));
  Alcotest.(check int) "corrupt fragments: all misses" 0
    cached.Zipr.Pipeline.cache.Zipr.Pipeline.routine_hits

(* Irregular binaries (data islands, hidden computed-jump regions) must
   round-trip the delta path unchanged: ambiguous chunks are never
   cached, near-matches fall back, outputs never diverge. *)
let test_dirty_binary_falls_back_identically () =
  let a = (Workloads.Synthetic.frag_like ~seed:404 ~tests:0 ()).Workloads.Synthetic.binary in
  let b = (Workloads.Synthetic.frag_like ~seed:405 ~tests:0 ()).Workloads.Synthetic.binary in
  let dc = Zipr.Delta.create () in
  List.iter
    (fun binary ->
      let plain = rewrite binary in
      let cached = rewrite ~routine_cache:dc binary in
      Alcotest.(check bool) "dirty binary byte-identical" true
        (Bytes.equal (out plain) (out cached)))
    [ a; b; a ]

(* A fragment whose boundaries disagree with the recursive traversal —
   here literally shifted off the true framing — must be rejected, and a
   fragment straddling the chunk's upper cut must be rejected. *)
let test_adversarial_fragment_falls_back () =
  let module D = Zipr.Delta in
  let binary = (Workloads.Scale.generate_one ~seed:23 0).Workloads.Scale.binary in
  let scan = Chunker.scan binary in
  let text_end = scan.Chunker.base + scan.Chunker.len in
  let rec_ = Disasm.Recursive.traverse binary in
  let frame c = D.local_linear binary ~text_end c in
  let c =
    match
      Array.find_opt (fun c -> Array.length (frame c).D.boundaries > 1) scan.Chunker.chunks
    with
    | Some c -> c
    | None -> Alcotest.fail "no chunk with two boundaries"
  in
  let f = frame c in
  (* The honest framing validates. *)
  D.validate_chunk rec_ c f;
  let rejects what boundaries =
    match D.validate_chunk rec_ c { D.boundaries } with
    | () -> Alcotest.failf "%s framing must fall back" what
    | exception D.Fallback -> ()
  in
  rejects "shifted" (Array.map (fun (rel, insn, len) -> (rel + 1, insn, len)) f.D.boundaries);
  let _, insn, _ = f.D.boundaries.(0) in
  rejects "cut-straddling" [| (c.Chunker.hi - c.Chunker.lo - 1, insn, 4) |]

(* Shared cache across 4 workers: outputs must not depend on scheduling
   or on which worker seeds the cache. *)
let test_jobs_shared_cache () =
  let vs = Versioned.generate ~seed:17 ~versions:3 () in
  let items =
    List.map
      (fun (v : Versioned.version) ->
        { Parallel.Corpus.name = v.Versioned.name; data = serialize v.Versioned.binary })
      vs
  in
  let plain = Parallel.Corpus.rewrite_all ~jobs:1 ~transforms ~corpus_seed:1 items in
  let dc = Zipr.Delta.create () in
  let first =
    Parallel.Corpus.rewrite_all ~jobs:4 ~transforms ~routine_cache:dc ~corpus_seed:1 items
  in
  let second =
    Parallel.Corpus.rewrite_all ~jobs:4 ~transforms ~routine_cache:dc ~corpus_seed:1 items
  in
  let outputs (r : Parallel.Corpus.report) =
    List.map
      (fun (e : Parallel.Corpus.entry) ->
        match e.Parallel.Corpus.result with
        | Ok o -> o.Parallel.Corpus.rewritten
        | Error m -> Alcotest.failf "corpus rewrite failed: %s" m)
      r.Parallel.Corpus.entries
  in
  List.iter2
    (fun a b -> Alcotest.(check bool) "jobs=4 cached output identical" true (Bytes.equal a b))
    (outputs plain) (outputs first);
  List.iter2
    (fun a b -> Alcotest.(check bool) "jobs=4 warm output identical" true (Bytes.equal a b))
    (outputs plain) (outputs second);
  Alcotest.(check int) "warm corpus run misses nothing" 0
    second.Parallel.Corpus.merged_cache.Zipr.Pipeline.routine_misses

let suite =
  [
    Alcotest.test_case "versioned corpus is deterministic" `Quick test_versioned_deterministic;
    Alcotest.test_case "chunker tiles the text exactly" `Quick test_chunker_tiles;
    Alcotest.test_case "chunker cuts only at framing boundaries" `Quick
      test_chunker_cuts_on_framing;
    Alcotest.test_case "delta outputs byte-identical, versions hit" `Quick
      test_delta_byte_identity_and_hits;
    Alcotest.test_case "an edit does not poison unedited routines" `Quick test_edit_locality;
    Alcotest.test_case "second rewrite hits the whole-IR memo" `Quick test_memo_warm;
    Alcotest.test_case "fragments persist to disk and stitch back" `Quick test_disk_fragments;
    Alcotest.test_case "corrupted disk fragments read as misses" `Quick
      test_disk_corruption_is_miss;
    Alcotest.test_case "irregular binaries fall back byte-identically" `Quick
      test_dirty_binary_falls_back_identically;
    Alcotest.test_case "adversarial fragments fall back" `Quick
      test_adversarial_fragment_falls_back;
    Alcotest.test_case "shared cache at jobs=4 stays deterministic" `Slow
      test_jobs_shared_cache;
  ]
