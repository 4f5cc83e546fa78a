(** The rewriting daemon: accept loop, worker pool, shared IR cache.

    Lifecycle: {!create} binds and listens (a TCP port 0 is resolved to
    the kernel-chosen port — read it back with {!address}); {!serve}
    blocks running the accept loop until {!stop} is called (from a
    signal handler or another domain — it only flips an atomic);
    [serve] then drains the worker pool, so every request already
    admitted gets a real response, closes the socket and unlinks a Unix
    socket path.

    Overload policy: at most [queue_bound] requests may be admitted and
    not yet started; requests past the bound receive an immediate
    [Overloaded] response.  A request carrying a deadline that expires
    while queued receives [Deadline_exceeded] instead of being run.

    The IR cache ({!cache}) is shared by all requests across all worker
    domains: concurrent clients rewriting the same input pay for IR
    construction once, bounded by [cache_entries] entries and
    [cache_max_bytes] resident bytes (LRU eviction).  With [delta], the
    routine fragments are a second {!Irdb.Rcache} instance with the same
    byte budget, and [cache_dir] holds both stores' files under one disk
    bound. *)

type config = {
  jobs : int;  (** worker domains *)
  queue_bound : int;  (** admission bound = pool queue capacity *)
  max_request_bytes : int;  (** reject larger request payloads with [Too_large] *)
  cache_entries : int;
  cache_max_bytes : int;
  cache_dir : string option;
      (** optional disk spill for the IR cache and, with [delta], the
          routine fragments *)
  cache_disk_entries : int option;
      (** bound [cache_dir] to this many entry files of either store
          (oldest pruned) *)
  cache_disk_bytes : int option;  (** bound [cache_dir]'s total size *)
  delta : bool;
      (** enable the shared routine-granular cache: requests are served
          through {!Zipr.Delta} (a whole-binary memo of IR snapshots,
          [cache_entries] of them, then routine-fragment stitching)
          before falling back to the snapshot IR cache *)
  read_timeout_s : float;  (** per-connection socket read timeout *)
  max_ping_sleep_us : int;  (** cap on client-requested ping sleeps *)
  placement_budget : int option;
      (** default search-strategy candidate budget for requests that do
          not set their own *)
  placement_epsilon : float option;
      (** default search-strategy diversity dial; a request's own knob
          wins *)
  placement_weights : string;
      (** default cost-model weight spec ([""] = {!Zipr.Cost.default_weights}) *)
  ir_jobs : int;
      (** default intra-binary IR construction workers per request
          ([0] = auto-detect); a request's own [ir_jobs] knob wins.  The
          resolved value is echoed in the response's [det.ir_jobs] stats
          line; output bytes never depend on it. *)
  infer : bool;
      (** default inference-refiner switch per request; a request's own
          [infer] knob wins.  The effective value is echoed in
          [det.infer], and the aggregator's per-case byte accounting
          rides in the [det.agg.*] lines either way. *)
}

val default_config : config
(** jobs 2, queue bound 32, 64 MiB max request, 256-entry / 64 MiB
    memory-only cache (disk layer unbounded when enabled), delta off,
    10 s read timeout, 30 s ping-sleep cap, search knobs unset, serial
    IR construction ([ir_jobs = 1]), inference refiner off. *)

type stats = {
  accepted : int;  (** request frames that decoded successfully *)
  ok : int;
  bad_request : int;
  too_large : int;
  overloaded : int;
  deadline_exceeded : int;
  rewrite_errors : int;
  shutting_down : int;
  pings : int;
  cache_hits : int;
  cache_misses : int;
  routine_hits : int;  (** routine-fragment + memo hits (delta mode) *)
  routine_misses : int;
  delta_builds : int;  (** IRs assembled by stitching cached fragments *)
  queue_high_water : int;
  queue_bound : int;
  cache_resident_bytes : int;
  cache_evictions : int;
  routine_fragments : int;  (** resident routine-fragment entries *)
  routine_fragment_bytes : int;
}

type t

val create :
  ?config:config -> resolve_transform:(string -> Zipr.Transform.t option) -> Protocol.addr -> t
(** Bind and listen.  [resolve_transform] maps wire-level transform
    names to transforms ([None] → the request is answered with
    [Bad_request]).  Raises [Unix.Unix_error] if the address cannot be
    bound. *)

val serve : t -> unit
(** Run the accept loop on the calling domain until {!stop}; drains,
    closes and unlinks before returning. *)

val stop : t -> unit
(** Request shutdown.  Only sets an atomic flag — safe from a signal
    handler or any domain.  The accept loop notices within its 50 ms
    poll interval. *)

val address : t -> Protocol.addr
(** The bound address, with TCP port 0 resolved. *)

val stats : t -> stats
val admission : t -> Admission.t
val cache : t -> Irdb.Cache.t
