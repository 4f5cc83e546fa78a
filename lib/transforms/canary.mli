(** Stack-canary insertion with per-rewrite randomization (after the
    dynamic canary randomization work of Hawkins et al. that the paper
    lists among Zipr's applications).

    Each eligible function pushes a random 32-bit cookie at entry and, in
    front of every return, verifies the cookie before discarding it; a
    mismatch — the signature of a contiguous stack overflow — transfers to
    a violation handler that terminates with {!violation_status}.  The
    cookie is drawn fresh for every rewrite from the seed, so two
    diversified instances of the same binary require different forged
    values.

    Instruments the functions {!Frame.eligible} admits, like
    {!Stack_pad}, except those with a pinned secondary entry. *)

val violation_status : int
(** 141: distinguishable from both clean exits and CFI violations. *)

val make : seed:int -> unit -> Zipr.Transform.t

val transform : Zipr.Transform.t
(** [make ~seed:11 ()]. *)
