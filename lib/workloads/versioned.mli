(** A versioned corpus: N successive versions of one synthetic binary,
    differing by a handful of local edits per version — the input of
    [bench delta] and of the [versioned-delta] benchmark workload.

    Version-to-version churn is deliberately {e local}: cross-routine
    calls go through a fixed-shape pointer table in rodata and all data
    references are absolute into fixed-shape pools, so editing one
    routine leaves every other routine's encoded bytes untouched (even
    when the edit shifts the text layout).  The pointer table's address
    words also make every routine a recursive-disassembly root, keeping
    the whole text unambiguous: linear sweep and recursive traversal
    agree on every byte, so each version's cold IR build takes the
    validated path ({!Disasm.Aggregate.run}, DESIGN.md §12, §14). *)

type edit =
  | Insn_edit of int  (** regenerate routine [id]'s body *)
  | Data_move of int  (** move routine [id]'s pool word to the next slot *)
  | Insert of int  (** bring extra routine [id] to life *)
  | Delete of int  (** remove extra routine [id] *)

type version = {
  name : string;  (** ["v0"], ["v1"], ... *)
  binary : Zelf.Binary.t;
  edits : edit list;  (** edits applied relative to the previous version *)
}

val pp_edit : Format.formatter -> edit -> unit

val generate :
  ?n_routines:int ->
  ?n_extras:int ->
  ?body_ops:int ->
  ?edits_per_version:int ->
  seed:int ->
  versions:int ->
  unit ->
  version list
(** [generate ~seed ~versions ()] builds [versions] successive versions.
    [n_routines] core routines (live in every version, default 24) plus
    up to [n_extras] extra routines that insertions/deletions toggle
    (default 8, half live initially); [body_ops] sizes routine bodies
    (default 36);
    [edits_per_version] edits are applied between consecutive versions
    (default 2).  Fully deterministic in its arguments: an unedited
    routine emits identical bytes in every version. *)
