(** Shadow-stack return protection.

    The paper concedes (footnote 2) that marker-based CFI has known
    weaknesses — control-flow bending can aim at {e some} legitimate
    marker byte.  A shadow stack closes the return-edge half of that gap:
    every protected function's entry records the live return address in a
    transform-added shadow region, and every return verifies the actual
    return address against the recorded one before transferring.  A
    mismatch — any corruption of the saved return address, regardless of
    what byte it points at — terminates with {!violation_status}.

    Mechanics: one shared [shadow_push] routine called at each protected
    entry and one shared [shadow_check] called in front of each return
    (5 bytes per site), a 4-byte cursor cell in an added data section and
    a bss shadow region (default 16 KiB ≈ 4096 live frames; deeper
    recursion faults safely on the region's unmapped guard).

    Functions are protected under {!Frame.eligible}, like {!Canary}:
    entries that are loop heads or fallthrough targets, and functions
    whose control flow escapes to other functions, are left alone. *)

val violation_status : int
(** 142. *)

val make : ?region_bytes:int -> unit -> Zipr.Transform.t

val transform : Zipr.Transform.t
(** [make ()]. *)
