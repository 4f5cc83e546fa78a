(** Content-addressed store for IR snapshots.

    IR construction is the dominant pipeline phase (see DESIGN.md's phase
    cost table), yet for a fixed input binary and pin configuration it is
    a pure function — so the daemon, the fuzz harness and
    [Corpus.rewrite_all], which revisit the same binaries many times, can
    skip it.  Payloads (serialized IR snapshots, opaque strings here) are
    addressed by a digest of everything that determines them, so a stale
    entry is structurally unreachable rather than merely invalidated.

    A mutex-protected LRU bounded by entry count and resident bytes, with
    an optional disk layer ([ziprtool batch --cache DIR], [serve --cache
    DIR]) of [<key>.zirc] files headed [ZIRCACHE1 <key>].  Writes go
    through a temp file and an atomic rename, so domains racing on one
    key each publish a complete entry.  All operations are safe to call
    from several domains sharing one [t]. *)

type t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?dir:string ->
  ?max_disk_entries:int ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** [capacity] bounds the in-memory entry count (default 64).
    [max_bytes] also bounds the resident bytes, key plus payload length
    per entry: inserting past it evicts least-recently-used entries until
    the newcomer fits, and an entry larger than the whole budget is not
    admitted at all ({!oversize_skips}).  An eviction costs the same at
    any resident count, and a memory hit updates recency without
    allocating.  No byte budget by default.

    [dir] (created if missing) enables the disk layer.  After each
    {!store} the directory is pruned, oldest mtime first, until all of
    its [<key>.zir<letter>] files fit [max_disk_entries] and
    [max_disk_bytes] — whichever instance or process wrote them,
    including the [.zirr] files older releases wrote there — and every
    other file is left alone.  Unbounded by default.

    Counters: [irdb.cache.{lookups,mem_hits,disk_hits,misses,stores,
    evictions,oversize_skips,resident_bytes,disk_evictions}];
    [resident_bytes] is a high-water gauge. *)

val key : string list -> string
(** Digest of the given parts (length-prefixed, so part boundaries are
    unambiguous).  Callers include every input that determines the
    payload: codec version, input bytes, configuration fingerprint. *)

val find : t -> string -> string option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val store : t -> key:string -> string -> unit
val mem_entries : t -> int

val resident_bytes : t -> int
(** Always [<= max_bytes] when a budget is set. *)

val evictions : t -> int
(** Memory entries evicted so far (capacity- or budget-triggered). *)

val oversize_skips : t -> int

val disk_evictions : t -> int
(** Entry files this [t] removed to keep its directory in bounds. *)
