(** Routine-granular incremental IR construction (the delta path).

    Caches IR at two granularities and composes the pieces into a full
    {!Ir_construction.t} without rerunning the expensive disassembly
    aggregation:

    - {e routine fragments}: per-{!Disasm.Chunker} chunk instruction
      boundaries, keyed by chunk bytes + decode lookahead + the
      chunk-relative inbound-reference fingerprint.  A changed caller
      whose references into an unchanged callee are unchanged does not
      touch the callee's key, so version-to-version rewrites reuse the
      IR of every untouched routine;
    - an {e assembled-IR memo}: the {!Ir_construction.snapshot} of a
      whole binary's finished pristine IR, a hit paying one
      {!Ir_construction.restore} (a payload that does not restore is a
      miss).

    The composed result is byte-identical to the cold path: the stitched
    aggregate is used only when a fresh recursive traversal proves it
    equal to what {!Disasm.Aggregate.run} would produce, and it then
    flows through the same {!Ir_construction.build_from_aggregate}.  Any
    doubt falls back to a cold build (reported as a miss) — unsupported
    binaries are slow, never wrong.  See DESIGN.md §12. *)

type t

val create :
  ?fragment_bytes:int ->
  ?memo_capacity:int ->
  ?dir:string ->
  ?max_disk_entries:int ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** Two {!Irdb.Rcache} instances: up to 65536 fragments, [fragment_bytes]
    bounding their resident bytes (no budget by default), and a memory-only
    memo of [memo_capacity] snapshots (default 64).  [dir] persists
    fragments as [<key>.zirr] files (atomic framed writes; corruption reads
    back as a miss).  It may be the snapshot cache's directory:
    [max_disk_entries] / [max_disk_bytes] then bound both stores' files
    together, as {!Irdb.Cache.create}'s do (see {!Irdb.Rcache.disk}).
    Safe to share across domains. *)

type key_set
(** Precomputed key material for one binary (chunking, per-chunk keys,
    memo key), carried from {!obtain} to {!harvest} so the scan is not
    repeated. *)

type outcome = {
  ir : Ir_construction.t option;
      (** the composed IR, or [None] when the caller must build cold
          (and should then {!harvest}) *)
  routine_hits : int;  (** chunks served from cache *)
  routine_misses : int;  (** chunks rebuilt, or all chunks on fallback *)
  delta_built : bool;  (** [ir] came from a partial stitch, not the memo *)
  keys : key_set;
}

val obtain :
  t -> pin_config:Analysis.Ibt.config -> ?infer:bool -> Zelf.Binary.t -> outcome
(** Try to serve IR construction from the cache: memo first, then a
    routine-granular stitch when at least one fragment hits and the
    whole composition validates.  [infer] (default false) enters the key
    fingerprint — caches populated with and without the inference
    refiner never cross-pollinate — and a stitched aggregate recomputes
    the refiner's pin hints over its validated boundaries. *)

val harvest : ?snapshot:string -> t -> outcome -> Ir_construction.t -> unit
(** Publish a cold (or snapshot-restored) build's results: fragments for
    every chunk the disassembly aggregation was conclusive about, plus
    the whole-binary memo.  Must be called on the pristine IR, before
    transforms mutate it (the memo stores its snapshot).  [snapshot] is
    that IR's {!Ir_construction.snapshot} when the caller already holds
    it — the payload the snapshot cache just stored or restored — so the
    memo shares the string instead of encoding the IR again. *)

(* Introspection, for stats surfaces and tests. *)

val fragment_entries : t -> int
val fragment_bytes : t -> int
val memo_entries : t -> int
