(* Routine-granular incremental IR construction (the "delta" path).

   The cold pipeline rebuilds the whole IR from scratch for every input,
   even when consecutive inputs are near-identical versions of one
   program.  This module caches IR at two granularities and composes the
   pieces into a full {!Ir_construction.t}:

   - {e Level 1 — routine fragments.}  {!Disasm.Chunker} cuts the text at
     routine boundaries; for each chunk whose disassembly aggregation was
     conclusive (no ambiguous byte, no instruction crossing a cut) we
     store its instruction boundaries, keyed by a digest of the chunk
     bytes, the 6-byte suffix, and the chunk-relative inbound-reference
     fingerprint.  A changed caller whose references into a callee are
     unchanged leaves the callee's key — and cached entry — intact.

   - {e Level 0 — assembled-IR memo.}  The snapshot
     ({!Ir_construction.snapshot}) of the finished pristine IR for a
     whole binary, keyed by everything.  A hit is one
     {!Ir_construction.restore}, the same cheap restore as a
     snapshot-cache hit; this is what makes fully-warm repeat rewrites
     (fuzzing loops, corpus re-runs) nearly free.  Holding payloads
     instead of live IRs keeps the memo a few tens of KiB per binary.

   Byte-identity with the cold path is by construction, not by luck:

   - the stitched aggregate is only used when {e every} chunk passes a
     validation that makes it provably equal to what {!Disasm.Aggregate.run}
     would produce.  A fresh (cheap) recursive traversal is compared
     bidirectionally against the stitched boundaries: every boundary must
     be a recursive instruction with identical framing, every recursive
     byte must be covered by a boundary, every gap byte unreached.  Under
     those conditions the three cold sources are fully determined: linear
     framing inside each chunk is a pure function of the key material
     (the sweep enters each chunk at its base by induction over the
     validated tiling), and the superset source abstains everywhere
     recursive traversal reached and claims [Data] exactly on the
     undecodable gap bytes.  So verdicts, boundaries and (absence of)
     warnings coincide with the cold aggregate's.

   - the stitched aggregate then flows through the {e same}
     {!Ir_construction.build_from_aggregate} as a cold build.

   - any validation failure abandons the stitch and reports a miss; the
     caller falls back to the cold path (and harvests it), so a binary
     the scheme cannot prove clean is merely slow, never wrong. *)

module Agg = Disasm.Aggregate
module Chunker = Disasm.Chunker
module Rcache = Irdb.Rcache

let codec_version = "ZIRDL1"

type fragment = Stitch.fragment = { boundaries : (int * Zvm.Insn.t * int) array }
(* (chunk-relative start, instruction, encoded length), ascending,
   non-overlapping, within the chunk.  The framing/validation machinery
   lives in {!Stitch}, shared with the parallel IR builder. *)

type t = {
  fragments : fragment Rcache.t;
  memo : (string * int) Rcache.t;
      (* pristine IR's snapshot + its chunk count (so a memo hit can
         report routine-level hit counters without re-running the
         chunker) *)
}

type key_set = {
  binary : Zelf.Binary.t;
  memo_key : string;
  scan_keys : (Chunker.t * string array) Lazy.t;
      (* the chunker scan and per-chunk keys cost a full decode pass
         plus one digest per chunk — a whole-IR memo hit skips both *)
}

type outcome = {
  ir : Ir_construction.t option;
  routine_hits : int;
  routine_misses : int;
  delta_built : bool;
  keys : key_set;
}

(* ---------- fragment disk codec ---------- *)

let encode_fragment f =
  let b = Buffer.create (64 + (Array.length f.boundaries * 24)) in
  Buffer.add_string b
    (Printf.sprintf "%s %d\n" codec_version (Array.length f.boundaries));
  Array.iter
    (fun (rel, insn, len) ->
      Buffer.add_string b
        (Printf.sprintf "%d %d %s\n" rel len
           (Zipr_util.Hex.of_bytes (Zvm.Encode.to_bytes insn))))
    f.boundaries;
  Buffer.contents b

(* Total: any framing, count, hex, decode or length anomaly is a miss. *)
let decode_fragment s =
  match String.split_on_char '\n' s with
  | header :: rest -> (
      match String.split_on_char ' ' header with
      | [ v; n ] when v = codec_version -> (
          match int_of_string_opt n with
          | None -> None
          | Some n when n < 0 || List.length rest < n -> None
          | Some n -> (
              let parse line =
                match String.split_on_char ' ' line with
                | [ rel; len; hex ] -> (
                    let raw =
                      try Some (Zipr_util.Hex.to_bytes hex) with Invalid_argument _ -> None
                    in
                    match (int_of_string_opt rel, int_of_string_opt len, raw) with
                    | Some rel, Some len, Some raw -> (
                        match Zvm.Decode.decode_bytes raw ~pos:0 with
                        | Ok (insn, ilen) when ilen = len && ilen = Bytes.length raw ->
                            Some (rel, insn, len)
                        | _ -> None)
                    | _ -> None)
                | _ -> None
              in
              let rec go i acc = function
                | _ when i = n -> Some (List.rev acc)
                | [] -> None
                | line :: tl -> (
                    match parse line with
                    | Some b -> go (i + 1) (b :: acc) tl
                    | None -> None)
              in
              match go 0 [] rest with
              | Some bs -> Some { boundaries = Array.of_list bs }
              | None -> None))
      | _ -> None)
  | [] -> None

let weigh_fragment f = 64 + (56 * Array.length f.boundaries)

let weigh_memo (payload, _) = String.length payload

let fragment_codec =
  {
    Rcache.magic = "ZIRRC1";
    ext = ".zirr";
    encode = encode_fragment;
    decode = decode_fragment;
  }

let create ?fragment_bytes ?(memo_capacity = 64) ?dir ?max_disk_entries ?max_disk_bytes
    () =
  let disk =
    Option.map
      (fun dir ->
        ( { Rcache.dir; max_entries = max_disk_entries; max_bytes = max_disk_bytes },
          fragment_codec ))
      dir
  in
  {
    fragments =
      Rcache.create ~capacity:65536 ?max_bytes:fragment_bytes ?disk ~name:"delta.frag"
        ~weigh:weigh_fragment ();
    memo =
      Rcache.create ~capacity:memo_capacity ~name:"delta.memo" ~weigh:weigh_memo ();
  }

(* ---------- keys ---------- *)

(* Everything that determines a chunk's fragment: codec version, pin
   fingerprint (pins are not stored per fragment, but the gate's notion
   of a conclusive build is downstream of the same configuration), the
   chunk bytes, the decode lookahead past the cut, the chunk-relative
   inbound references, and whether the chunk is flush with the text end
   (decode attempts near the end of the {e last} chunk are truncated by
   the section boundary, not by the next chunk's bytes). *)
let chunk_key ~fp binary (scan : Chunker.t) (c : Chunker.chunk) =
  let flags =
    Printf.sprintf "%c%c"
      (if c.Chunker.synced then 's' else 'u')
      (if c.Chunker.hi = scan.Chunker.base + scan.Chunker.len then 't' else 'm')
  in
  Irdb.Cache.key
    [
      codec_version;
      fp;
      flags;
      Chunker.chunk_bytes binary c;
      Chunker.chunk_suffix binary c;
      Chunker.inbound_string c;
    ]

(* The memo key covers the whole serialized binary (so data sections that
   feed jump tables and the address-constant scan are included), plus the
   configuration fingerprint. *)
let memo_key ~fp binary =
  Irdb.Cache.key
    [ codec_version ^ "/memo"; fp; Bytes.to_string (Zelf.Binary.serialize binary) ]

(* ---------- partial rebuild + validation ---------- *)

(* Store chunk [i]'s fragment under [keys.(i)] wherever there is one:
   one call, so a disk-bounded store scans its directory once. *)
let store_fragments t keys frags =
  Array.to_seqi frags
  |> Seq.filter_map (fun (i, f) -> Option.map (fun f -> (keys.(i), f)) f)
  |> List.of_seq
  |> Rcache.store_all t.fragments

(* Framing and validation are {!Stitch}'s (shared with the parallel IR
   builder); this path runs them serially over the chunk array with one
   reusable scratch. *)

let stitch t ~pin_config ~infer binary ~memo_key ~(scan : Chunker.t) ~chunk_keys frags =
  let text_end = scan.Chunker.base + scan.Chunker.len in
  match
    Obs.span "delta_stitch" (fun () ->
        let rec_ =
          Obs.span "recursive" (fun () -> Disasm.Recursive.traverse binary)
        in
        let scratch = Stitch.scratch () in
        let resolved =
          Array.mapi
            (fun i c ->
              match frags.(i) with
              | Some f -> (f, false)
              | None -> (Stitch.local_linear ~scratch binary ~text_end c, true))
            scan.Chunker.chunks
        in
        Array.iteri
          (fun i c -> Stitch.validate_chunk ~scratch rec_ c (fst resolved.(i)))
          scan.Chunker.chunks;
        resolved)
  with
  | exception Stitch.Fallback -> None
  | resolved ->
      let agg = Stitch.assemble ~infer binary scan (Array.map fst resolved) in
      let ir = Ir_construction.build_from_aggregate ~pin_config binary agg in
      store_fragments t chunk_keys
        (Array.map (fun (f, rebuilt) -> if rebuilt then Some f else None) resolved);
      Rcache.store t.memo ~key:memo_key
        (Ir_construction.snapshot ir, Array.length scan.Chunker.chunks);
      Some ir

(* ---------- public entry points ---------- *)

let obtain t ~pin_config ?(infer = false) binary =
  let fp = Ir_construction.fingerprint ~infer pin_config in
  let memo_key = memo_key ~fp binary in
  let scan_keys =
    lazy
      (let scan = Obs.span "delta_scan" (fun () -> Chunker.scan binary) in
       (scan, Array.map (chunk_key ~fp binary scan) scan.Chunker.chunks))
  in
  let keys = { binary; memo_key; scan_keys } in
  (* A payload that does not restore is a memo miss: the stitch or the
     cold build that follows replaces it. *)
  let memo_hit =
    match Rcache.find t.memo memo_key with
    | Some (payload, n) -> (
        match Ir_construction.restore binary payload with
        | Ok ir -> Some (ir, n)
        | Error _ -> None)
    | None -> None
  in
  match memo_hit with
  | Some (ir, n) ->
      Obs.count "delta.memo_hits" 1;
      Obs.count "delta.routine_hits" n;
      { ir = Some ir; routine_hits = n; routine_misses = 0; delta_built = false; keys }
  | None -> (
      let scan, chunk_keys = Lazy.force scan_keys in
      let n = Array.length scan.Chunker.chunks in
      let frags = Array.map (Rcache.find t.fragments) chunk_keys in
      let n_hit = Array.fold_left (fun a f -> if f = None then a else a + 1) 0 frags in
      if n_hit = 0 then begin
        Obs.count "delta.routine_misses" n;
        { ir = None; routine_hits = 0; routine_misses = n; delta_built = false; keys }
      end
      else
        match stitch t ~pin_config ~infer binary ~memo_key ~scan ~chunk_keys frags with
        | Some ir ->
            Obs.count "delta.routine_hits" n_hit;
            Obs.count "delta.routine_misses" (n - n_hit);
            Obs.count "delta.delta_builds" 1;
            {
              ir = Some ir;
              routine_hits = n_hit;
              routine_misses = n - n_hit;
              delta_built = true;
              keys;
            }
        | None ->
            Obs.count "delta.fallbacks" 1;
            Obs.count "delta.routine_misses" n;
            { ir = None; routine_hits = 0; routine_misses = n; delta_built = false; keys })

(* Harvest gate: a chunk is cacheable iff, per the {e actual} cold
   aggregate, it contains no ambiguous byte and its boundaries tile its
   code bytes without crossing either cut.  Data bytes then necessarily
   failed isolated decode (linear sweep attempted each one), so the
   fragment's meaning is a pure function of its key material.

   Bytes the inference refiner flipped are excluded outright: their
   verdicts rest on whole-program facts (reachability closure, resolved
   computed targets), not on the chunk's bytes and inbound references,
   so a fragment covering them would not be a pure function of its key
   and could be wrongly reused after a distant edit. *)
let refined_overlaps (agg : Agg.t) (c : Chunker.chunk) =
  List.exists
    (fun (off, _) ->
      let a = agg.Agg.base + off in
      a >= c.Chunker.lo && a < c.Chunker.hi)
    agg.Agg.refined

let gate_chunk (agg : Agg.t) (c : Chunker.chunk) =
  let acc = ref [] in
  let ok = ref (not (refined_overlaps agg c)) in
  let off = ref c.Chunker.lo in
  while !ok && !off < c.Chunker.hi do
    match agg.Agg.verdicts.(!off - agg.Agg.base) with
    | Agg.Ambiguous -> ok := false
    | Agg.Data -> incr off
    | Agg.Code -> (
        match Hashtbl.find_opt agg.Agg.insn_at !off with
        | Some (insn, ilen) when !off + ilen <= c.Chunker.hi ->
            let all_code = ref true in
            for j = !off to !off + ilen - 1 do
              if agg.Agg.verdicts.(j - agg.Agg.base) <> Agg.Code then
                all_code := false
            done;
            if !all_code then begin
              acc := (!off - c.Chunker.lo, insn, ilen) :: !acc;
              off := !off + ilen
            end
            else ok := false
        | _ -> ok := false)
  done;
  if !ok then Some { boundaries = Array.of_list (List.rev !acc) } else None

let harvest ?snapshot t (o : outcome) (ir : Ir_construction.t) =
  let scan, chunk_keys = Lazy.force o.keys.scan_keys in
  store_fragments t chunk_keys
    (Array.map (gate_chunk ir.Ir_construction.aggregate) scan.Chunker.chunks);
  let snapshot =
    match snapshot with Some s -> s | None -> Ir_construction.snapshot ir
  in
  Rcache.store t.memo ~key:o.keys.memo_key (snapshot, Array.length scan.Chunker.chunks)

(* ---------- introspection ---------- *)

let fragment_entries t = Rcache.mem_entries t.fragments
let fragment_bytes t = Rcache.resident_bytes t.fragments
let memo_entries t = Rcache.mem_entries t.memo
