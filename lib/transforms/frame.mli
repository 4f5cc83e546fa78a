(** The frame analysis that {!Stack_pad}, {!Canary} and {!Shadow_stack}
    share.

    Each of the three edits a function's entry and its returns, and each
    may do so only where the edit runs exactly once per activation and
    every exit path is seen.  One pass over the IRDB's rows, O(rows +
    functions), gives every function its member rows, its returns and
    the facts that decide this; the transforms then edit from the result
    without rescanning.

    The result stays true while a transform instruments the functions one
    after another.  Their edits are {!Irdb.Db.insert_before} and
    {!Irdb.Db.insert_after}, and a row either inserts makes takes the
    [func] of the row it was inserted at, so it counts as a member of
    the same function and carries the old row's links: no function's
    facts or returns change through another function's edits.  This
    relies on every function's entry row being one of its own members,
    which {!Analysis.Funcid} establishes and no transform undoes. *)

type site = { head : Irdb.Db.insn_id; ret : Irdb.Db.insn_id }
(** A return site: a non-fixed [ret] row together with {!Cfi}'s
    [call ret_check] directly in front of it, when there is one.  [head]
    is the site's first row: the guard, or else the [ret] itself.  A
    transform that moves the stack pointer before returning (stack-pad's
    [addi], canary's cookie drop) inserts in front of [head], so the
    guard still finds the return address on top of the stack.  Only
    CFI's own guard joins a site: shadow-stack's [call shadow_check]
    leaves the stack as it found it and stays directly before the
    [ret]. *)

type func = {
  func : Irdb.Db.func;
  members : Irdb.Db.insn_id list;  (** rows whose [func] is this function, ascending *)
  sites : site list;  (** one per non-fixed [ret] member, ascending by [ret] *)
  entry_fixed : bool;
  loop_head : bool;  (** a member branches to the entry *)
  fallthrough_target : bool;  (** some row, in any function, falls through into the entry *)
  escapes : bool;
      (** a member's fallthrough, or a non-call member's target, leaves the
          function *)
  secondary_entry : bool;
      (** a pinned member other than the entry that is not a call's return
          point: an indirect arrival there would skip the entry *)
}

val analyse : Irdb.Db.t -> func list
(** Every function whose entry row is live, in {!Irdb.Db.funcs} order. *)

val eligible : func -> bool
(** The rule all three transforms apply, so that the entry code runs once
    per activation and every exit undoes it.  The entry is not fixed (its
    bytes cannot change).  It is not a loop head (the entry code would
    run again on every iteration).  It is not a fallthrough target (a
    routine that runs into it, such as a nop stub, would run the entry
    code of both).  Control leaves the function only through its own
    returns (an edge into another function would run that function's
    returns against this frame).  And it has at least one return. *)
