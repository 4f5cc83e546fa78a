(** Multi-disassembler aggregation with the paper's conservative four-case
    code/data disambiguation (§II-A1).

    For every byte range of the text section the primary disassemblers'
    verdicts are combined:

    + both conclusively agree the bytes are code with identical
      instruction boundaries, or agree they are data — the range is
      labelled accordingly ({e case 1});
    + a range is conclusively labelled data by linear sweep but reached as
      code by recursive traversal (or vice versa) — the disassemblers
      disagree, so the range is {b ambiguous} and is treated as {e both}
      code and data: its bytes stay fixed at their original addresses and
      its decoded instructions still participate in CFG construction
      ({e cases 2 and 3});
    + code claimed only by linear sweep, unreached by recursive traversal,
      is also treated as ambiguous — if there is {e any} chance a range
      labelled instructions actually contains data, the output is treated
      as inconclusive, and a warning is recorded to ease debugging
      ({e case 4}).

    {!Source.Refiner} sources (the {!Infer} pass) never participate in the
    case analysis; they may only {e refine} bytes it judged ambiguous, so
    a byte the primaries agreed on is never overturned (DESIGN.md §15). *)

type verdict = Code | Data | Ambiguous

(** Per-case byte accounting of one aggregation, plus refinement and
    overlap-mismatch counters.  [merge_stats] is an associative,
    commutative monoid with identity [tally_zero], so corpus totals are
    independent of job count and order. *)
type tally = {
  case1_code : int;  (** agreed code bytes *)
  case1_data : int;  (** agreed data bytes *)
  case2_disagree : int;  (** boundary-disagreement bytes *)
  case3_contradict : int;  (** data-vs-code contradiction bytes *)
  case4_low_confidence : int;  (** code claimed only by low-confidence tools *)
  overlap_len_mismatch : int;
      (** overlapping boundary pairs claiming different instruction
          lengths (reported, never silently clamped) *)
  refined_code : int;  (** ambiguous bytes a refiner flipped to code *)
  refined_data : int;  (** ambiguous bytes a refiner flipped to data *)
  refined_by_fact : (string * int) list;
      (** flipped bytes per inference fact, sorted by fact name *)
}

val tally_zero : tally
val merge_stats : tally -> tally -> tally
val tally_fields : tally -> (string * int) list
(** Canonical [(key, value)] rendering shared by [--stats], the server's
    [det.*] lines and bench JSON. *)

type t = {
  base : int;
  len : int;
  verdicts : verdict array;  (** per byte of text *)
  insn_at : (int, Zvm.Insn.t * int) Hashtbl.t;
      (** instruction boundaries for downstream IR construction: recursive
          traversal's where available, linear sweep's otherwise *)
  warnings : string list;
  tally : tally;
  refined : (int * string) list;
      (** text offsets a refiner flipped, ascending, with the provenance
          tag of the fact that justified each flip *)
  pin_hints : int list;
      (** resolved computed-jump targets (in-text, sorted, unique) the
          pin analysis must keep landings at ({!Infer.t.pin_hints});
          empty unless the inference refiner ran *)
}

val run : ?infer:bool -> Zelf.Binary.t -> t
(** Run linear sweep and recursive traversal.  When their covers agree
    on every byte nothing is left to decide, and the result is
    {!of_recursive} (counted as [disasm.validated]); otherwise the
    superset source joins them and {!combine_sources} aggregates, with
    [~infer:true] (default false) adding the {!Infer} pass as a refiner
    source. *)

val of_recursive : ?infer:bool -> Zelf.Binary.t -> Recursive.t -> t
(** The aggregate of a traversal linear sweep agrees with: Code on the
    reached bytes with the traversal's instructions as boundaries, Data
    elsewhere, all case 1, no warnings; with [~infer:true], pin hints
    from {!Infer.resolve_pins} over those boundaries.  {!run} returns
    it when the two sweeps agree. *)

val combine : Zelf.Binary.t -> Linear.t -> Recursive.t -> t
(** Two-way aggregation, for tests that want to inject disassembler
    results. *)

val combine_sources : Zelf.Binary.t -> Source.t list -> t
(** N-way aggregation over any set of {!Source}s covering the same text
    range (lowest boundary priority first).  A byte is [Code] iff a
    high-confidence primary claims it and every claiming primary agrees on
    the instruction start; [Data] iff no primary claims code; [Ambiguous]
    otherwise — then refiner sources may flip ambiguous bytes only.
    Raises [Invalid_argument] on an empty or mismatched source list, when
    no primary source is present, or when a primary source's boundary
    table has an entry that does not start inside the text, is empty, or
    binds an address twice. *)

val verdict_at : t -> int -> verdict option

val ambiguous_ranges : t -> (int * int) list
(** Maximal [\[lo, hi)] runs of ambiguous bytes, ascending. *)

val code_starts : t -> int list
(** Instruction start addresses in [Code] or [Ambiguous] bytes,
    ascending. *)

val stats : t -> int * int * int
(** (code bytes, data bytes, ambiguous bytes). *)

val pp_verdict : Format.formatter -> verdict -> unit
