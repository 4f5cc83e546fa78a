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
    [cache_max_bytes] resident bytes (LRU eviction), and optionally
    spilled to [cache_dir]. *)

type config = {
  jobs : int;  (** worker domains *)
  queue_bound : int;  (** admission bound = pool queue capacity *)
  max_request_bytes : int;  (** reject larger request payloads with [Too_large] *)
  cache_entries : int;
  cache_max_bytes : int;
  cache_dir : string option;  (** optional disk spill for the IR cache *)
  cache_disk_entries : int option;
      (** bound [cache_dir] to this many entry files (oldest pruned) *)
  cache_disk_bytes : int option;  (** bound [cache_dir]'s total size *)
  defaults : Zipr.Options.t;
      (** the optional knobs a request leaves unset; a request's set
          knobs win, and its transforms, placement and seed always do
          ({!Zipr.Options.merge}).  The effective [infer] is echoed in
          the response's [det.infer] line. *)
}

val default_config : config
(** jobs 2, queue bound 32, 64 MiB max request, 256-entry / 64 MiB
    memory-only cache (disk layer unbounded when enabled),
    {!Zipr.Options.default} (inference refiner off).  Fixed: a
    connection that goes quiet for 10 s mid-frame is dropped, and a ping
    sleeps at most 30 s. *)

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
  queue_high_water : int;
  queue_bound : int;
  cache_resident_bytes : int;
  cache_evictions : int;
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
