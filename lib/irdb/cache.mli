(** Content-addressed store for IR snapshots.

    IR construction is the dominant pipeline phase (see DESIGN.md's phase
    cost table), yet for a fixed input binary and pin configuration it is
    a pure function — so the daemon, the fuzz harness and
    [Corpus.rewrite_all], which revisit the same binaries many times, can
    skip it.  Payloads (serialized IR snapshots, opaque strings here) are
    addressed by a digest of everything that determines them, so a stale
    entry is structurally unreachable rather than merely invalidated.

    This is {!Rcache}'s string instance: its counters are
    [irdb.cache.*], an entry weighs its payload length, and the disk
    layer ([ziprtool batch --cache DIR]) writes [<key>.zirc] files
    headed [ZIRCACHE1 <key>].  The delta fragment store may share the
    directory and its bound (see {!Rcache.disk}). *)

type t = string Rcache.t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?dir:string ->
  ?max_disk_entries:int ->
  ?max_disk_bytes:int ->
  unit ->
  t
(** [capacity] bounds the in-memory entry count (default 64), [max_bytes]
    the resident key + payload bytes (see {!Rcache.create}).  [dir]
    enables the disk layer; [max_disk_entries] / [max_disk_bytes] bound
    the directory (see {!Rcache.disk}; unbounded by default). *)

val key : string list -> string
(** {!Rcache.key}. *)

val find : t -> string -> string option
val store : t -> key:string -> string -> unit
val mem_entries : t -> int
val resident_bytes : t -> int
val evictions : t -> int
val oversize_skips : t -> int
val disk_evictions : t -> int
