(** Inert compatibility names for the retired routine-granular delta
    cache.  Every IR comes from {!Irdb.Cache} or a cold
    {!Ir_construction.build}, which takes the validated shortcut exactly
    where a fragment stitch could have succeeded (DESIGN.md §12.2).  The
    benchmark harness still calls these; nothing here caches anything. *)

type t

val create : ?fragment_bytes:int -> ?memo_capacity:int -> unit -> t
(** Ignores its arguments. *)

type outcome = {
  ir : Ir_construction.t option;  (** always [None]: build or restore instead *)
  routine_hits : int;  (** always 0 *)
  routine_misses : int;  (** always 0 *)
  delta_built : bool;  (** always [false] *)
}

val obtain :
  t -> pin_config:Analysis.Ibt.config -> ?infer:bool -> Zelf.Binary.t -> outcome
(** Always declines. *)

val harvest : t -> outcome -> Ir_construction.t -> unit
(** Does nothing. *)

val fragment_bytes : t -> int
(** Always 0. *)
