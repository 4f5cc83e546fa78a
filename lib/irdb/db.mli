(** The IR database (IRDB).

    The IRDB mediates communication between the pipeline phases exactly as
    in the paper: IR construction populates it, transformations edit it,
    and reassembly reads it back out.  (The paper's IRDB is SQL-backed;
    this one is in-memory with a textual dump — see DESIGN.md for the
    substitution note.)

    The central entities are {e instruction rows}.  A row holds a logical
    instruction plus the two logical links the paper's §II-A calls out:

    - [fallthrough]: the row executed next in straight-line order, [None]
      for instructions without fallthrough ([jmp], [ret], ...);
    - [target]: the row a {e direct} control-flow instruction transfers to.
      Direct branches in the IRDB never carry meaningful encoded
      displacements — the logical [target] link is the truth, and
      displacements are recomputed from placement at reassembly time.

    A row may carry a {e pinned address}: the original-program address at
    which something may arrive indirectly at run time.  Reassembly
    guarantees that when the rewritten program's PC reaches a pinned
    address, the pinned row's (possibly transformed) instruction executes
    (paper §II-A2, Figure 2).

    Rows whose [fixed] flag is set belong to byte ranges the disassembler
    aggregation could not prove to be pure code (paper §II-A1 cases 2/3);
    they are kept at their original addresses with their original bytes. *)

type insn_id = int

type row = {
  id : insn_id;
  mutable insn : Zvm.Insn.t;
  mutable fallthrough : insn_id option;
  mutable target : insn_id option;
  mutable pinned : int option;
  mutable fixed : bool;
  orig_addr : int option;  (** provenance; [None] for transform-inserted code *)
  mutable func : int option;  (** owning function, once {!set_func} assigns one *)
}

type func = { fid : int; fname : string; entry : insn_id }

type t

val create : ?size_hint:int -> orig:Zelf.Binary.t -> unit -> t
(** An empty IRDB for rewriting the given binary.  [size_hint] presizes
    the row and original-address indexes (IR construction passes the
    aggregate's decoded-boundary count so the tables never rehash during
    the build). *)

val orig : t -> Zelf.Binary.t

(* Row creation and access *)

val add_insn : ?orig_addr:int -> t -> Zvm.Insn.t -> insn_id
(** Add an isolated row (no links). *)

val row : t -> insn_id -> row
(** Raises [Not_found] for a dead or unknown id. *)

val find_by_orig_addr : t -> int -> insn_id option
(** The row whose [orig_addr] is the given original-program address. *)

val set_fallthrough : t -> insn_id -> insn_id option -> unit
val set_target : t -> insn_id -> insn_id option -> unit

val pin : t -> insn_id -> int -> unit
(** Pin a row to an original address.  At most one row per address; raises
    [Invalid_argument] if the address is already pinned to another row. *)

val pinned_addresses : t -> (int * insn_id) list
(** All (address, row) pins, sorted by address. *)

val count : t -> int
(** Live instruction rows. *)

val iter : t -> (row -> unit) -> unit
(** Iterate rows in unspecified order. *)

val ids : t -> insn_id list
(** Live ids, ascending — a stable iteration order for transforms. *)

(* Structural editing (the user-transform API's foundation) *)

val insert_before : t -> insn_id -> Zvm.Insn.t -> insn_id
(** Insert an instruction in front of a row, {e stealing its identity}:
    every incoming link (fallthrough, target, pinned address) that led to
    the old instruction now executes the new instruction first.  Returns
    the id now holding the {e original} instruction.  This is how security
    checks are interposed before a protected instruction. *)

val insert_after : t -> insn_id -> Zvm.Insn.t -> insn_id
(** Insert on the fallthrough edge after a row.  Raises
    [Invalid_argument] on rows with no fallthrough. *)

val append_chain : t -> Zvm.Insn.t list -> insn_id
(** Create a fresh fallthrough-linked chain (e.g. a violation handler) and
    return its head.  The list must be non-empty, and its last instruction
    should not fall through (the chain's tail fallthrough is [None]). *)

val splice_out : t -> insn_id -> unit
(** Remove a row, redirecting incoming links to its fallthrough.  Raises
    [Invalid_argument] if the row has no fallthrough or is pinned-fixed. *)

val replace : t -> insn_id -> Zvm.Insn.t -> unit
(** Overwrite a row's instruction in place, keeping all links. *)

(* Entry point *)

val set_entry : t -> insn_id -> unit
val entry : t -> insn_id

(* Functions *)

val add_func : t -> fname:string -> entry:insn_id -> int
val funcs : t -> func list
val set_func : t -> insn_id -> int -> unit

(* Transform-added data *)

val add_section : t -> Zelf.Section.t -> unit
(** Record a new data section the transform wants in the output binary. *)

val added_sections : t -> Zelf.Section.t list

val next_free_vaddr : t -> int
(** A page-aligned address beyond the original binary and all added
    sections, where a transform may place new data. *)

(* Pin prologue *)

val set_pin_prologue : t -> Zvm.Insn.t list -> unit
(** Instructions the reassembler must emit at every pinned address, in
    front of the reference jump (and in front of a colocated dollop).
    Used by CFI to put a landing marker at every legitimate
    indirect-branch target.  Only fallthrough-only instructions are
    allowed; raises [Invalid_argument] otherwise. *)

val pin_prologue : t -> Zvm.Insn.t list

(* Relocations in transform-added data *)

type reloc = { reloc_section : string; reloc_offset : int; reloc_target : insn_id }

val add_reloc : t -> section:string -> offset:int -> target:insn_id -> unit
(** Ask reassembly to patch a 32-bit little-endian cell of a
    transform-added section with the {e final} address of an instruction
    row.  This is how statically modelled indirect-branch targets (e.g. a
    rewritten jump table) follow their instructions to wherever placement
    puts them.  The reloc also {e demands} the target: reassembly places
    it even if no code reference does. *)

val relocs : t -> reloc list

val mark_pin : t -> int -> unit
(** Mark a pinned address as a potential {e indirect-branch target} (as
    opposed to, e.g., a conservatively pinned after-call site).  The pin
    prologue is emitted only at marked pins; unmarked pins keep bare
    reference slots and stay eligible for native resolution when a dollop
    reassembles over them. *)

val pin_is_marked : t -> int -> bool

val marked_pins : t -> int list
(** Every address passed to {!mark_pin}, ascending — including marks on
    addresses whose pin was later dropped.  Needed by the IR snapshot's
    row records ({!Dump.add_rows}). *)

(* Consistency *)

val validate : t -> string list
(** Structural invariant check, for tests and post-transform sanity:
    every fallthrough/target link lands on a live row; no fallthrough out
    of a non-falling instruction; the pin table and row pin fields agree;
    the entry (when set) is live; function entries are live.  Returns a
    list of violations (empty = consistent). *)
