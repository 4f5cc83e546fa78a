(** Inference-based third disassembly source (a {!Source.Refiner}).

    Runs a fact-propagation fixpoint over the superset decode — post-call
    fallthrough liveness, jump-table bound anchors, overlap-conflict
    exclusion, data-word/pointer-reference anchors, constant-folded
    computed-target resolution, and (when every indirect site resolves)
    closed-world unreachable-code exclusion — producing per-byte
    code/data/unknown verdicts, each carrying the provenance tag of the
    fact that derived it.  The pass {e abstains on every byte the
    recursive traversal reached}, so its claims can refine only the
    ranges the primary sources left ambiguous and can never contradict
    the high-confidence traversal (the QCheck soundness property holds by
    construction; behavioural soundness of the facts themselves is gated
    by the differential fuzzer).  See DESIGN.md §15. *)

type fact =
  | Call_fallthrough
  | Jump_table
  | Overlap_exclusion
  | Data_word
  | Computed_target
  | Unreachable

val fact_name : fact -> string
val all_facts : fact list

type t = {
  source : Source.t;  (** kind [Refiner], name ["infer"] *)
  rounds : int;  (** worklist pops performed by the propagation fixpoint *)
  fact_counts : (string * int) list;
      (** bytes claimed per fact, every fact present, generator order *)
  pin_hints : int list;
      (** resolved computed-jump targets (in-text, sorted, unique): the
          run-time computation produces these {e original} addresses, so
          the pin analysis must keep landings there before any flipped
          body may be relocated *)
  closed : bool;
      (** every indirect site resolved — the precondition of the
          [unreachable-code] fact *)
}

val run : Zelf.Binary.t -> avoid:Recursive.t -> t
(** Infer over the binary's text section, abstaining on bytes [avoid]
    reached. *)

val resolve_pins : Zelf.Binary.t -> insns:(int, Zvm.Insn.t * int) Hashtbl.t -> int list
(** Resolved in-text computed-jump targets over a {e validated}
    instruction map (sorted, unique).  On a binary whose aggregation has
    no ambiguity the full inference pass performs exactly one resolution
    round over exactly this map, so {!Aggregate.of_recursive} (the cold
    path when the two primary sweeps agree) uses this to reproduce
    [run]'s [pin_hints] without re-running discovery. *)

val round_bound : Zelf.Binary.t -> int
(** Static bound on [rounds] for the termination property: the worklist
    is deduplicated per (offset, fact) and every claim is monotone, so it
    drains within [6 * text_len + 1024 + 64] pops. *)

val table_entry_bound : int
(** Jump-table scan bound (matches {!Analysis.Jumptable}; deliberately
    wider than the traversal's 256-entry seed bound). *)
