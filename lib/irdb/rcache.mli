(** The one store behind every IR cache: a mutex-protected LRU bounded by
    entry count and resident bytes, over payloads of any type, with an
    optional on-disk layer.

    Three instances exist: {!Cache} (IR snapshot strings), and the delta
    path's routine fragments and whole-binary memo ({!Zipr.Delta}).
    Fragments stay structured, so a memory hit is a hashtable probe, not
    a codec parse.  All operations are safe to call from several domains
    sharing one [t]. *)

type disk = {
  dir : string;  (** created if missing *)
  max_entries : int option;  (** entry files the directory may hold *)
  max_bytes : int option;  (** total size of those files *)
}
(** A cache directory and its bound.  The snapshot cache and the
    fragment store may share one: every instance names its entry files
    [<key>.zir<letter>], and after each {!store} or {!store_all} the
    directory is pruned, oldest mtime first, until all of its entry
    files — whichever instance wrote them — fit both bounds.  The
    scan-based prune stays correct when several processes share the
    directory.  Unbounded when both are [None]. *)

type 'a codec = {
  magic : string;  (** framing header tag, e.g. ["ZIRCACHE1"] *)
  ext : string;  (** entry file extension, [".zir"] plus one letter *)
  encode : 'a -> string;
  decode : string -> 'a option;  (** total: garbage decodes to [None] *)
}
(** An instance's on-disk format.  An entry file holds
    [<magic> <key>\n] then the encoded payload; embedding the key makes a
    renamed, truncated or corrupted file read back as a miss, never as a
    wrong payload.  Writes go through a temp file and an atomic rename,
    so domains racing on one key each publish a complete entry. *)

type 'a t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?disk:disk * 'a codec ->
  name:string ->
  weigh:('a -> int) ->
  unit ->
  'a t
(** [capacity] bounds the in-memory entry count (default 4096).
    [max_bytes] also bounds the resident bytes, key length plus [weigh]
    per entry: inserting past it evicts least-recently-used entries
    until the newcomer fits, and an entry larger than the whole budget
    is not admitted at all ({!oversize_skips}).  No byte budget by
    default, no disk layer without [disk].

    [name] prefixes the obs counters
    [<name>.{lookups,mem_hits,disk_hits,misses,stores,evictions,
    oversize_skips,resident_bytes,disk_evictions}]; [resident_bytes] is
    a high-water gauge. *)

val key : string list -> string
(** Digest of the given parts (length-prefixed, so part boundaries are
    unambiguous).  Callers include every input that determines the
    payload: codec version, input bytes, configuration fingerprint. *)

val find : 'a t -> string -> 'a option
(** Memory first, then disk (a disk hit is promoted into memory). *)

val store : 'a t -> key:string -> 'a -> unit

val store_all : 'a t -> (string * 'a) list -> unit
(** {!store} each pair, then prune the directory once. *)

val mem_entries : 'a t -> int

val resident_bytes : 'a t -> int
(** Always [<= max_bytes] when a budget is set. *)

val evictions : 'a t -> int
(** Memory entries evicted so far (capacity- or budget-triggered). *)

val oversize_skips : 'a t -> int

val disk_evictions : 'a t -> int
(** Entry files this [t] removed to keep its directory in bounds. *)
