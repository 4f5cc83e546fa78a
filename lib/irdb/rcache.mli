(** Byte-budgeted LRU over in-memory payloads of any type — the storage
    layer behind the routine-granular (delta) IR cache.

    Unlike {!Cache}, whose payloads are strings, the payload type is a
    parameter: delta fragments stay structured and are shared by
    reference, so a hit costs a hashtable probe, not a codec parse.  Thread-safe (one mutex per cache, like
    {!Cache}); the optional disk layer writes framed entries atomically
    through a caller-supplied codec. *)

type 'a disk = {
  dir : string;
  encode : 'a -> string;
  decode : string -> 'a option;  (** total: garbage decodes to [None] *)
}

type 'a t

val create :
  ?capacity:int ->
  ?max_bytes:int ->
  ?disk:'a disk ->
  name:string ->
  weigh:('a -> int) ->
  unit ->
  'a t
(** [name] prefixes the obs counters ([<name>.evictions],
    [<name>.resident_bytes], [<name>.oversize_skips]); [weigh] estimates
    a payload's resident bytes for the [max_bytes] budget.  Defaults:
    capacity 4096 entries, no byte budget, no disk layer.  A payload
    weighing more than the whole budget is refused outright. *)

val find : 'a t -> string -> 'a option
val store : 'a t -> key:string -> 'a -> unit

val mem_entries : 'a t -> int
val resident_bytes : 'a t -> int
val evictions : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val stores : 'a t -> int
