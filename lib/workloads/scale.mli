(** Scale-out corpus generation for the 1k+ binary placement benches.

    Each index derives its own independent stream with
    {!Zipr_util.Rng.derive}, so binary [i]'s bytes depend only on
    [(seed, i)] — never on the corpus size, generation order or worker
    count.  The class mix is deliberately fragmentation-heavy (~40%
    shattered-text services, plus CGC-style challenge profiles, scaled
    down libc/apache stand-ins and pathological pin-scatter cases):
    smooth binaries place identically under every strategy, so a bench
    over them would measure nothing. *)

type item = { name : string; binary : Zelf.Binary.t }
(** [name] is unique per index and records the class, e.g.
    ["sc0042-frag.zbf"]. *)

val generate_one : seed:int -> int -> item
(** The corpus member at one index, without materializing the rest. *)

val corpus : ?seed:int -> count:int -> unit -> item list
(** The first [count] members, in index order.  Default seed 1. *)

val generate_large : seed:int -> int -> item
(** One member of the separate "large" class: libc-like-and-larger
    bodies with [>= 256 KiB] of text, all of it reachable code, so the
    cold build takes the validated path.  A distinct stream (names
    ["lg%03d-large.zbf"]) rather than a new {!corpus} class, so the
    pinned bytes of the existing corpus never shift. *)
