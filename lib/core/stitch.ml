(* Chunk-level stitching machinery, shared by the routine-granular delta
   cache ({!Delta}) and the domain-parallel IR builder ({!Par_ir}).

   Both consumers rebuild a whole-text disassembly aggregate from
   per-chunk instruction framings and accept it only after the same
   bidirectional validation against a fresh recursive traversal: every
   boundary must be a recursive instruction with identical decode, every
   recursively reached byte must be covered by a boundary with that
   start, and every gap byte must be unreached.  Under those conditions
   the cold aggregation's three sources are fully determined (linear
   framing is a pure function of the bytes given the validated tiling,
   and the superset source abstains everywhere recursive traversal
   reached while claiming Data exactly on the undecodable gaps), so the
   assembled aggregate coincides with what {!Disasm.Aggregate.run} would
   produce — verdicts, boundaries, and (absence of) warnings.  Any doubt
   raises {!Fallback} and the caller rebuilds cold: unsupported binaries
   are slow, never wrong.

   The two hot helpers ([local_linear], [validate_chunk]) accept an
   optional {!scratch}: a reusable per-domain claim buffer and expected-
   cover array, so tight loops over thousands of chunks do not allocate
   per chunk.  A scratch must never be shared across domains. *)

module Agg = Disasm.Aggregate
module Chunker = Disasm.Chunker

type fragment = { boundaries : (int * Zvm.Insn.t * int) array }
(* (chunk-relative start, instruction, encoded length), ascending,
   non-overlapping, within the chunk. *)

exception Fallback

(* ---------- per-domain scratch ---------- *)

type claims = { mutable items : (int * Zvm.Insn.t * int) array; mutable n : int }

type scratch = { mutable expect : int array; claims : claims }

let scratch () = { expect = [||]; claims = { items = [||]; n = 0 } }

let push cl x =
  (if cl.n = Array.length cl.items then begin
     let grown = Array.make (max 64 (2 * cl.n)) x in
     Array.blit cl.items 0 grown 0 cl.n;
     cl.items <- grown
   end);
  cl.items.(cl.n) <- x;
  cl.n <- cl.n + 1

let take cl =
  let out = Array.sub cl.items 0 cl.n in
  cl.n <- 0;
  out

let expect_buf s n =
  if Array.length s.expect < n then s.expect <- Array.make n (-1)
  else Array.fill s.expect 0 n (-1);
  s.expect

(* ---------- per-chunk framing and validation ---------- *)

(* Linear-framing decode of one chunk in isolation.  Equal to the global
   sweep's framing inside the chunk because the sweep enters at [c.lo]
   (guaranteed by the caller's induction over previously validated
   chunks) and decode outcomes depend only on the bytes.  Raises
   {!Fallback} if an instruction would cross the chunk's upper cut. *)
let local_linear ?scratch binary ~text_end (c : Chunker.chunk) =
  let text = Zelf.Binary.text binary in
  let data = text.Zelf.Section.data and base = text.Zelf.Section.vaddr in
  let cl =
    match scratch with Some s -> s.claims | None -> { items = [||]; n = 0 }
  in
  let pos = ref c.Chunker.lo in
  (try
     while !pos < c.Chunker.hi do
       match Zvm.Decode.decode_sub data ~pos:(!pos - base) ~limit:(text_end - base) with
       | Ok (insn, ilen) ->
           if !pos + ilen > c.Chunker.hi then raise Fallback;
           push cl (!pos - c.Chunker.lo, insn, ilen);
           pos := !pos + ilen
       | Error _ -> incr pos
     done
   with Fallback ->
     cl.n <- 0;
     raise Fallback);
  { boundaries = take cl }

(* The stitched framing of a chunk is usable iff it coincides exactly
   with recursive traversal inside the chunk: every boundary is a
   recursive instruction with identical decode, every recursively
   reached byte is covered by a boundary with that start, every gap
   byte is unreached.  Raises {!Fallback} otherwise. *)
let validate_chunk ?scratch (rec_ : Disasm.Recursive.t) (c : Chunker.chunk) f =
  let clen = c.Chunker.hi - c.Chunker.lo in
  let expect =
    match scratch with Some s -> expect_buf s clen | None -> Array.make clen (-1)
  in
  let prev_end = ref 0 in
  Array.iter
    (fun (rel, insn, ilen) ->
      if rel < !prev_end || rel + ilen > clen then raise Fallback;
      prev_end := rel + ilen;
      (match Hashtbl.find_opt rec_.Disasm.Recursive.insns (c.Chunker.lo + rel) with
      | Some (insn', ilen') when ilen' = ilen && insn' = insn -> ()
      | _ -> raise Fallback);
      for i = rel to rel + ilen - 1 do
        expect.(i) <- c.Chunker.lo + rel
      done)
    f.boundaries;
  let base = rec_.Disasm.Recursive.base in
  for off = 0 to clen - 1 do
    if rec_.Disasm.Recursive.cover.(c.Chunker.lo + off - base) <> expect.(off) then
      raise Fallback
  done

(* Fused framing + validation of one chunk, allocation-free: decode the
   chunk's linear framing and compare it against the recursive cover in
   the same pass instead of materializing a fragment and an expected-
   cover array.  Equivalent to [local_linear] followed by
   [validate_chunk] — every local boundary must be a recursive
   instruction with identical decode whose span the cover attributes to
   it, and every undecodable byte must be unreached — but with nothing
   to keep, which is what the domain-parallel builder wants: its chunk
   tasks are pure validators (the validated claims coincide with the
   traversal, so the merge materializes from the traversal directly).
   Raises {!Fallback} on any disagreement. *)
let validate_span binary ~text_end (rec_ : Disasm.Recursive.t) (c : Chunker.chunk) =
  let text = Zelf.Binary.text binary in
  let data = text.Zelf.Section.data and text_base = text.Zelf.Section.vaddr in
  let base = rec_.Disasm.Recursive.base in
  let cover = rec_.Disasm.Recursive.cover in
  let pos = ref c.Chunker.lo in
  while !pos < c.Chunker.hi do
    match Zvm.Decode.decode_sub data ~pos:(!pos - text_base) ~limit:(text_end - text_base) with
    | Ok (insn, ilen) ->
        if !pos + ilen > c.Chunker.hi then raise Fallback;
        (match Hashtbl.find_opt rec_.Disasm.Recursive.insns !pos with
        | Some (insn', ilen') when ilen' = ilen && insn' = insn -> ()
        | _ -> raise Fallback);
        for i = !pos to !pos + ilen - 1 do
          if cover.(i - base) <> !pos then raise Fallback
        done;
        pos := !pos + ilen
    | Error _ ->
        if cover.(!pos - base) <> -1 then raise Fallback;
        incr pos
  done

(* ---------- aggregate assembly ---------- *)

(* One merge pass over all validated fragments, in chunk (= address)
   order: gap bytes stay Data, boundary spans become Code, and the
   boundary table is rebuilt.  Only called on fully validated tilings,
   so no warnings can arise.  With [~infer:true] the aggregate carries
   the same pin hints the cold inference pass derives: a validated
   tiling has no ambiguity, so the cold pass performs exactly one
   computed-target resolution round over exactly these boundaries
   ({!Disasm.Infer.resolve_pins}). *)
let assemble ?(infer = false) binary (scan : Chunker.t) (frags : fragment array) =
  let verdicts = Array.make scan.Chunker.len Agg.Data in
  let insn_at = Hashtbl.create 1024 in
  Array.iteri
    (fun i (c : Chunker.chunk) ->
      Array.iter
        (fun (rel, insn, ilen) ->
          let addr = c.Chunker.lo + rel in
          Hashtbl.replace insn_at addr (insn, ilen);
          for j = addr - scan.Chunker.base to addr - scan.Chunker.base + ilen - 1 do
            verdicts.(j) <- Agg.Code
          done)
        frags.(i).boundaries)
    scan.Chunker.chunks;
  {
    Agg.base = scan.Chunker.base;
    len = scan.Chunker.len;
    verdicts;
    insn_at;
    warnings = [];
    tally = Agg.tally_of_verdicts verdicts;
    refined = [];
    pin_hints = (if infer then Disasm.Infer.resolve_pins binary ~insns:insn_at else []);
  }

(* The aggregate a fully validated tiling assembles, materialized from
   the traversal it was validated against: under the validation
   invariant the per-chunk claims coincide with the recursive cover
   (boundaries are exactly the traversal's instructions, Code bytes are
   exactly the reached bytes, gaps stay Data), so copying the traversal
   is the same merge without re-walking any fragment. *)
let of_recursive ?(infer = false) binary (rec_ : Disasm.Recursive.t) =
  let len = rec_.Disasm.Recursive.len in
  let verdicts = Array.make len Agg.Data in
  let cover = rec_.Disasm.Recursive.cover in
  for i = 0 to len - 1 do
    if cover.(i) >= 0 then verdicts.(i) <- Agg.Code
  done;
  let insn_at = Hashtbl.copy rec_.Disasm.Recursive.insns in
  {
    Agg.base = rec_.Disasm.Recursive.base;
    len;
    verdicts;
    insn_at;
    warnings = [];
    tally = Agg.tally_of_verdicts verdicts;
    refined = [];
    pin_hints = (if infer then Disasm.Infer.resolve_pins binary ~insns:insn_at else []);
  }
