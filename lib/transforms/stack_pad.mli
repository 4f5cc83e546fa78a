(** Stack-layout padding (the paper's illustrative "Pad Stack" transform,
    Figure 2, and the speculative stack-layout-transformation defense of
    Rodes et al. that Zipr has been used to apply).

    Each identified function gets a randomly sized pad inserted between
    its return address and its locals: [subi sp, pad] at entry, matched by
    [addi sp, pad] in front of every return.  Overflows aimed at the
    return address must now traverse an unpredictable gap.

    Only the functions {!Frame.eligible} admits are padded: where the
    entry is a loop head, for one, the entry adjustment would re-execute
    and unbalance the stack. *)

val make : ?min_pad:int -> ?max_pad:int -> seed:int -> unit -> Zipr.Transform.t
(** Pads are uniform multiples of 4 in [\[min_pad, max_pad\]] (defaults 16
    and 64), drawn per function from the seed. *)

val transform : Zipr.Transform.t
(** [make ~seed:7 ()]. *)
