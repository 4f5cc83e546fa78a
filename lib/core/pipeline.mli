(** The end-to-end Zipr pipeline (paper Figure 1):
    IR Construction -> Transformation -> Reassembly. *)

type config = {
  placement : Placement.t;
  pin_config : Analysis.Ibt.config;
  seed : int;  (** drives layout diversity under the random strategy *)
  infer : bool;
      (** run the {!Disasm.Infer} fact-propagation pass as a third
          (refiner) disassembly source.  Off by default; when off every
          output and cache key is byte-identical to previous releases.
          When on, ambiguous bytes the inference closure proves
          unreachable or resolves are refined, resolved computed-jump
          targets are pinned, and all IR cache keys incorporate the
          inference codec version so refined and unrefined IR never
          cross-pollinate. *)
}

val default_config : config
(** Optimized placement, conservative pinning, seed 1, no inference
    refiner. *)

val resolve_jobs : int -> int
(** The shared 0-means-auto rule for every jobs knob: [0] resolves to
    [Domain.recommended_domain_count ()], anything else clamps to at
    least 1.  Exposed so CLIs and benches can surface the resolved
    value. *)

type timing = {
  ir_construction_s : float;
  transformation_s : float;
  reassembly_s : float;
}

val zero_timing : timing
(** The identity of {!add_timing}. *)

val add_timing : timing -> timing -> timing
(** Per-phase sum; commutative, so a corpus aggregate is independent of
    completion order. *)

type cache_stats = { ir_cache_hits : int; ir_cache_misses : int }
(** Per-rewrite snapshot-cache outcome: at most one of the two is 1, both
    0 when no cache was supplied.  Aggregated over a corpus with
    {!add_cache_stats}. *)

val zero_cache_stats : cache_stats
val add_cache_stats : cache_stats -> cache_stats -> cache_stats

type result = {
  rewritten : Zelf.Binary.t;
  ir : Ir_construction.t;
  stats : Reassemble.stats;
  timing : timing;
  cache : cache_stats;
}

val ir_cache_key :
  pin_config:Analysis.Ibt.config -> infer:bool -> Zelf.Binary.t -> string
(** The content address of a binary's IR: digest of the snapshot codec
    version, the configuration fingerprint (pin configuration plus the
    inference-refiner switch) and the serialized input bytes.  Any
    change to any of the three yields a different key, so stale cache
    entries are unreachable by construction. *)

val rewrite :
  ?config:config ->
  ?ir_cache:Irdb.Cache.t ->
  transforms:Transform.t list ->
  Zelf.Binary.t ->
  result
(** Rewrite a binary.  Raises {!Reassemble.Failure_} on unrecoverable
    reassembly problems.

    A cold IR build is {!Ir_construction.build} on every input; its
    disassembly skips the superset decode and combine where the two
    sweeps agree ({!Disasm.Aggregate.run}).

    With [ir_cache], IR construction is served from the cache when the
    {!ir_cache_key} hits: disassembly, pinned-address analysis and IR
    build are skipped and the snapshot is restored instead (the restored
    IR is bit-identical to a cold build, so the rewritten output is too).
    On a miss — or a payload {!Ir_construction.restore} rejects — the IR
    is built cold and its snapshot (re)stored.  [timing.ir_construction_s]
    covers whichever path ran; [result.cache] says which it was.  The
    cache may be shared across domains. *)

val try_rewrite :
  ?config:config ->
  ?ir_cache:Irdb.Cache.t ->
  transforms:Transform.t list ->
  Zelf.Binary.t ->
  (result, string) Stdlib.result
(** Total variant of {!rewrite}: {!Reassemble.Failure_} and the pipeline's
    internal exception families ([Failure], [Invalid_argument],
    [Not_found]) are rendered into the [Error] branch, so one bad binary
    in a batch reports instead of aborting the corpus. *)

val rewrite_bytes :
  ?config:config ->
  ?ir_cache:Irdb.Cache.t ->
  ?routine_cache:Delta.t ->
  transforms:Transform.t list ->
  bytes ->
  (bytes, string) Stdlib.result
(** File-level convenience: parse, rewrite, serialize.  Total like
    {!try_rewrite}: parse errors and pipeline exceptions are rendered
    into [Error], never raised.  [routine_cache] is ignored; it stays
    for callers of the retired delta cache ({!Delta}). *)
