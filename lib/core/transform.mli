(** The user-specified transformation API (paper §II-B2).

    Zipr does not ship a fixed menu of hardening techniques; it exposes
    the IRDB so users implement their own.  A transform is a named
    function over the IRDB; it may iterate functions and instructions,
    change, replace or remove instructions, insert new ones, and add data
    sections (see {!Irdb.Db} for the editing primitives).

    Transforms run after the mandatory transformations, so they can treat
    instructions as freely relocatable and never deal with PC-relative
    encodings. *)

type t = {
  name : string;
  describe : string;
  apply : Irdb.Db.t -> unit;
}

val make : name:string -> describe:string -> (Irdb.Db.t -> unit) -> t

val apply_all : t list -> Irdb.Db.t -> unit
(** Apply in order. *)
