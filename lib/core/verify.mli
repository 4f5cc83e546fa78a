(** Post-rewrite structural validation.

    The paper stresses that a missed pin or a mislabelled byte range
    produces a silently broken binary; this module is the safety net a
    production rewriter ships with.  Given the inputs and outputs of a
    rewrite, it checks every invariant that can be checked without
    executing the program:

    - the output serializes and re-parses;
    - the entry point is preserved;
    - non-text sections of the original survive byte-for-byte (the data
      segment is "copied directly from the original program", §II-C1);
    - every fixed (ambiguous) range and every data-in-text range is
      byte-identical to the original;
    - every movable pinned address decodes to a control transfer (or a
      pin-prologue instruction reaching one), and following the reference
      stays within the program's code;
    - every sled entry walks (push-immediates over no-op filler) to the
      sled's dispatch jump, and that jump lands on decodable code;
    - chained/expanded references do not point outside the code regions.

    Optionally, a transcript check runs the supplied inputs through both
    binaries (the dynamic complement the paper's evaluation relies on),
    judged by the one differential rule below. *)

type issue = { check : string; detail : string }

type report = { issues : issue list; checks_run : int }

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

val structural :
  orig:Zelf.Binary.t ->
  ir:Ir_construction.t ->
  rewritten:Zelf.Binary.t ->
  report
(** All static checks. *)

(** {1 Differential execution}

    The one rule that decides whether a rewrite behaves like its
    original on an input.  Both runs come from {!Zelf.Image.boot} (the
    pollers' [Cgc.Poller.run] is that runner at a fixed budget), and
    every differential in the system (the transcript check below, the
    pollers' functional check, the fuzz driver) asks this rule:

    - exit status and output bytes must be equal;
    - faults compare by {e kind}, not by address: a rewrite moves code,
      so pc values (and, under stack diversity, stack addresses) differ
      even between equivalent executions;
    - the ordered system-call traces must be equal;
    - the rewrite runs with {!rewrite_fuel} of the original's budget,
      since reference jumps, sleds and chained hops legitimately retire
      extra instructions;
    - an original that exhausts its budget has no behaviour to compare:
      the verdict is {!Undecided}, never a divergence. *)

type verdict =
  | Equivalent
  | Undecided  (** the original exhausted its budget; nothing to compare *)
  | Diverged of string  (** human-readable mismatch description *)

val rewrite_fuel : int -> int
(** [rewrite_fuel fuel] is [2 * fuel + 4096]: the rewrite's instruction
    budget against an original run with [fuel]. *)

val compare_runs : orig:Zvm.Vm.result -> rewritten:Zvm.Vm.result -> verdict
(** The rule, applied to one run of each side on the same input.  The
    caller gives the rewrite's run {!rewrite_fuel} of the original's
    budget. *)

val compare_on :
  ?fuel:int -> orig:Zelf.Binary.t -> rewritten:Zelf.Binary.t -> string -> verdict
(** Boot the original on the input with [fuel] (default 2 million) and,
    unless it exhausts that, the rewrite with [rewrite_fuel fuel]; then
    {!compare_runs}. *)

val transcripts :
  ?fuel:int -> orig:Zelf.Binary.t -> rewritten:Zelf.Binary.t -> string list -> report
(** One "transcript" check per input: an issue for each input on which
    {!compare_on} reports a divergence. *)

val full :
  ?fuel:int ->
  ?inputs:string list ->
  orig:Zelf.Binary.t ->
  ir:Ir_construction.t ->
  rewritten:Zelf.Binary.t ->
  unit ->
  report
(** {!structural} plus {!transcripts} (default inputs: [ "" ]). *)
