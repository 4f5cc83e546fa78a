(** Control-flow integrity (the security transform Xandra fielded in the
    CGC, paper §IV-B).

    A simple landing-pad CFI in the Abadi et al. lineage:

    - every pinned address — the only legitimate destinations of indirect
      jumps and calls — gets a 1-byte [land] marker emitted in front of
      its reference (via the IRDB pin prologue), and every call site gets
      a [retland] marker at its return point;
    - every [ret] is preceded by a check that the byte at the return
      address is [retland];
    - every [jmpr]/[callr]/[jmpt] is preceded by a check that the byte at
      the computed target is [land] (or a sled's push opcode, since sled
      entries are also legitimate pin bytes);
    - a failed check transfers to a violation handler that terminates the
      process with status {!violation_status}.

    Like all coarse-grained CFI (the paper cites the control-flow-bending
    attacks explicitly, footnote 2), this narrows rather than eliminates
    the attack surface: an attacker can still pivot to {e some} marker
    byte.  It is faithful to what the competition demanded — automated
    exploits stopped within a strict overhead envelope.

    Checks clobber flags, which is sound for compiler-shaped code (flags
    are dead at indirect control transfers); see DESIGN.md. *)

val violation_status : int
(** 139, mimicking a SIGSEGV death. *)

val is_ret_guard : Irdb.Db.t -> Irdb.Db.row -> bool
(** Whether the row is the [call] to the return check that this
    transform puts directly in front of a [ret].  {!Frame} keys return
    sites on it. *)

val transform : Zipr.Transform.t
