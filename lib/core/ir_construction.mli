(** The IR Construction phase (paper §II-A): disassemble, disambiguate,
    build logical links, compute pinned addresses, and populate the IRDB.

    Output is the IRDB plus the byte ranges of the original text section
    that must keep their original contents in the rewritten program:

    - [fixed_ranges] — ambiguous ranges (disassembler disagreement,
      paper cases 2/3/4): bytes copied verbatim {e and} decoded rows kept
      for CFG purposes, marked [fixed];
    - [data_ranges] — ranges both disassemblers agree are data
      (read-only tables, string islands): bytes copied verbatim. *)

type t = {
  db : Irdb.Db.t;
  aggregate : Disasm.Aggregate.t;
  pins : Analysis.Ibt.t;
  fixed_ranges : (int * int) list;
  data_ranges : (int * int) list;
  warnings : string list;
}

val build : ?pin_config:Analysis.Ibt.config -> ?infer:bool -> Zelf.Binary.t -> t
(** Run the whole phase: aggregate disassembly (with the {!Disasm.Infer}
    refinement pass when [~infer:true]; default false), row/link
    construction,
    fixed-range marking, mandatory transformations, pinned-address
    assignment (including speculative decoding at pins that fall between
    known instruction boundaries), entry designation and function
    identification.

    Row ids are canonical: ascending original address for decoded
    boundaries, then insertion order for speculative and
    mandatory-transform rows.  Two builds of the same binary with the
    same configuration produce identical IRDBs — the property the IR
    cache's byte-identity guarantee rests on. *)

val build_from_aggregate :
  ?pin_config:Analysis.Ibt.config -> Zelf.Binary.t -> Disasm.Aggregate.t -> t
(** Everything downstream of disassembly, over a caller-supplied
    aggregate: pin analysis, row/link construction, mandatory
    transforms, pin assignment, entry designation, function
    identification.  [build] is [build_from_aggregate] over
    [Aggregate.run]; tests call it over an explicitly composed
    aggregate to check the cold path against it. *)

(** {1 Snapshot / restore}

    [build] dominates pipeline cost (disassembly, pin analysis, linking),
    yet is a pure function of the binary and the pin configuration.
    [snapshot]/[restore] serialize its {e result} so repeat rewrites of
    the same input (fuzzing, corpus runs, [ziprtool batch --cache]) skip
    the phase entirely; {!Irdb.Cache} stores the payloads, keyed by
    {!Irdb.Cache.key} over [snapshot_version], {!fingerprint} and the
    input bytes.

    The payload is binary ([ZIRIR3], laid out in DESIGN.md §9.2).
    Boundary instructions are not stored: restore decodes each one in
    place from the binary's text.  That is sound because the key covers
    the input bytes, and every aggregate boundary (linear, recursive,
    superset, inferred or stitched) is a decode of that text at that
    offset.  Nor are the instructions of rows that still hold their
    boundary's value (every row no mandatory transform rewrote): such a
    row is flagged and restore hands it the boundary it just decoded. *)

val snapshot_version : string
(** Participates in the cache key, so a codec change silently invalidates
    old entries rather than misparsing them. *)

val fingerprint : ?infer:bool -> Analysis.Ibt.config -> string
(** Stable digest input covering every configuration knob that affects
    [build]'s output.  The inference pass contributes its own codec
    version ({!infer_codec_version}) {e only} when [~infer:true], so all
    cache keys are unchanged whenever [--infer] is off. *)

val infer_codec_version : string

val snapshot : t -> string
(** Serialize a pristine [build] result.  Raises [Invalid_argument] if a
    row has been removed (transforms can; [build] never does). *)

val restore : Zelf.Binary.t -> string -> (t, string) result
(** Rebuild a [build] result from [snapshot] output over the same binary.
    [restore binary (snapshot (build binary))] is structurally identical
    to the original — same row ids, links, pins, marks, functions, entry,
    warnings — so downstream phases cannot distinguish a cache hit from a
    cold build.  Returns [Error] when the version differs, the text base
    or length differs from [Zelf.Binary.text binary], a boundary does not
    decode to its recorded length, a read runs past the end or bytes
    trail the last record, or the rebuilt db fails {!Irdb.Db.validate};
    callers then build cold. *)
