(** The registry of shipped transforms.

    Every front end that accepts transform names — [ziprtool rewrite]
    and [batch], the [ziprtool serve] daemon resolving names arriving
    over the wire, perfbench — resolves them here, so the
    set of served transforms cannot drift between entry points. *)

val all : Zipr.Transform.t list

val by_name : string -> Zipr.Transform.t option

val names : string list
(** In registry order, for help/error messages. *)
