(** Superset (speculative) disassembly.

    The third aggregation source, in the lineage of superset and
    probabilistic disassembly: decode a candidate instruction at {e every}
    byte offset, then prune candidates that provably flow into garbage —
    a valid instruction cannot fall through to, or branch to, an
    undecodable byte inside the text — iterating to a fixpoint.  The
    surviving candidates are scored by how many other survivors reference
    them (branch targets accumulate evidence), and a maximal
    non-overlapping tiling is chosen greedily from the best-scored seeds.

    To stay regression-free in the aggregation it deliberately {e
    abstains} wherever recursive traversal already has an answer: its
    value is better instruction boundaries in the regions no
    high-confidence tool reaches (data islands, computed-jump-only code),
    which sharpen the fixed-range CFGs and the [Fixed_target] pin
    analysis. *)

val run : Zelf.Binary.t -> avoid:Recursive.t -> Source.t
(** Speculative source for the binary's text section, abstaining on bytes
    [avoid] covers. *)

val decode_all : Zelf.Binary.t -> (Zvm.Insn.t * int) option array
(** The raw candidate decode at every text offset ([None] where the bytes
    do not decode or the instruction would spill off the section), read
    straight from the text section's bytes; the input to the prune
    fixpoint and to {!Infer}'s fact propagation. *)

val prune : Zelf.Binary.t -> (Zvm.Insn.t * int) option array -> bool array
(** [prune binary candidates] is the invalid-flow prune fixpoint over the
    [candidates] that {!decode_all} returned for [binary]: per text byte,
    is there a {e surviving} candidate starting at that offset?  Callers
    that already hold the decode prune it instead of decoding again. *)

val prune_fixpoint : Zelf.Binary.t -> bool array
(** [prune binary (decode_all binary)]. *)

val seed_order : alive:bool array -> score:int array -> int array
(** Exposed for tests: the tiling's seed order — the [alive] offsets by
    descending [score], ties by ascending offset.  Scores must be
    non-negative. *)
