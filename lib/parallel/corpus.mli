(** Domain-parallel corpus rewriting (the throughput story of §IV-A at
    corpus scale).

    The per-binary pipeline is pure after IR construction, so a corpus
    fans out across a {!Pool} of domains.  Two properties make the fan-out
    safe to rely on:

    - {b Deterministic RNG sharding}: binary [i] rewrites under layout
      seed [Rng.derive ~corpus_seed ~index:i].  The seed depends only on
      the pair, never on worker count or scheduling, so outputs are
      byte-identical for [~jobs:1] and [~jobs:64].
    - {b Order-independent merging}: per-binary {!Zipr.Reassemble.stats}
      and {!Zipr.Pipeline.timing} are folded with their monoid merges in
      binary-index order, whatever order workers finish in, so the merged
      report is identical too.

    Failures are isolated per binary: a file that does not parse or a
    rewrite that raises reports an [Error] entry and the corpus
    continues.  Wall-clock, per-shard busy and queue-wait numbers are
    measurements, not part of the deterministic surface. *)

type item = { name : string; data : bytes }
(** One corpus member: a serialized (unparsed) binary.  Parsing happens
    on the worker, inside the per-item error boundary. *)

type outcome = {
  rewritten : bytes;  (** serialized rewritten binary *)
  stats : Zipr.Reassemble.stats;
  tally : Disasm.Aggregate.tally;
      (** the binary's aggregator per-case byte accounting *)
  timing : Zipr.Pipeline.timing;
  cache : Zipr.Pipeline.cache_stats;
}

type entry = {
  index : int;
  name : string;
  seed : int;  (** the layout seed this binary rewrote under *)
  result : (outcome, string) Stdlib.result;
  elapsed_s : float;
  queue_wait_s : float;
  worker : int;
}

type report = {
  jobs : int;  (** resolved worker count ([?jobs:0] auto-detects) *)
  corpus_seed : int;
  entries : entry list;  (** in binary-index order *)
  ok : int;
  failed : int;
  merged_stats : Zipr.Reassemble.stats;  (** over successful entries *)
  merged_tally : Disasm.Aggregate.tally;
      (** aggregator byte accounting folded over successful entries with
          {!Disasm.Aggregate.merge_stats} — the monoid merge makes the
          total independent of job count and completion order *)
  merged_timing : Zipr.Pipeline.timing;
  merged_cache : Zipr.Pipeline.cache_stats;
      (** IR-cache hits/misses summed over successful entries; zeros when
          no [ir_cache] was supplied *)
  rewrite_total_s : float;
      (** sum of per-entry elapsed time: the serial-equivalent work *)
  wall_clock_s : float;
      (** submit-to-join time for the rewriting itself; excludes domain
          startup (see [pool_spawn_s]) *)
  queue_wait_total_s : float;
  queue_wait_max_s : float;
  pool_spawn_s : float;
      (** seconds spent spawning worker domains before any task ran; 0
          on the inline serial path *)
  shards : Pool.worker_stat list;
}

val rewrite_all :
  ?jobs:int ->
  ?config:Zipr.Pipeline.config ->
  ?transforms:Zipr.Transform.t list ->
  ?ir_cache:Irdb.Cache.t ->
  corpus_seed:int ->
  item list ->
  report
(** Rewrite every item.  Defaults: [jobs = 1], default pipeline config
    (whose [seed] field is overridden per binary by the derived shard
    seed), no transforms.  [jobs = 0] auto-detects
    [Domain.recommended_domain_count]; the resolved value lands in
    [report.jobs].  [entries], [merged_stats] and [merged_timing] are a
    pure function of [(items, config, transforms, corpus_seed)] — the
    timing floats excepted.

    [ir_cache] is shared by every worker domain (the cache is
    mutex-protected): repeat rewrites of a binary already in the cache
    restore its IR instead of rebuilding it.  Because a restored IR is
    identical to a cold build, outputs stay byte-identical whatever mix
    of hits and misses — and whatever [jobs] value — the run sees. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable corpus summary (counts, merged stats, shard and queue
    metrics). *)
