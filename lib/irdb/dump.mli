(** Human-readable IRDB dumps.

    The paper's IRDB is persisted in SQL so that pipeline stages can run
    as separate processes; here a deterministic textual dump serves the
    debugging half of that role (golden-file tests, [ziprtool disasm]
    output, postmortems on failed rewrites). *)

val to_string : Db.t -> string
(** One line per row, ascending id, followed by pin, function and section
    summaries.  Deterministic for a given IRDB state. *)

val pp : Format.formatter -> Db.t -> unit

val row_to_string : Db.row -> string

(** {1 Binary row records}

    The rows of a binary IR snapshot ([Ir_construction.snapshot], version
    [ZIRIR3]); the rest of that payload belongs to [Ir_construction],
    which shares the integer and string primitives below.  A snapshot
    must restore to the same bytes as the db that produced it, so row
    ids (placement iterates them in order), every pin mark (including
    marks whose pin was later dropped) and the entry all survive.

    Layout: an entry presence byte (then the entry id), the row count,
    one record per row in id order, the functions in fid order (name,
    entry row), and the marked pins.  A row record is a flags byte (bit
    0 [fixed]; bits 1-5 say which of [fallthrough], [target], [pinned],
    [orig_addr] and [func] follow; bit 6 says the row holds the boundary
    instruction at its [orig_addr]), then, unless bit 6 is set, the
    instruction's encoded length and bytes, then the present fields.
    Integers are LEB128; strings are length-prefixed.  Row and function
    ids are the record order. *)

type reader
(** A cursor over a payload.  Reads past its end raise
    [Invalid_argument]; malformed contents raise [Failure]. *)

val reader : ?pos:int -> string -> reader
val at_end : reader -> bool
val read_u8 : reader -> int
val add_uint : Zipr_util.Bytebuf.t -> int -> unit
val read_uint : reader -> int
val add_string : Zipr_util.Bytebuf.t -> string -> unit
val read_string : reader -> string

val add_rows :
  boundaries:(int, Zvm.Insn.t * int) Hashtbl.t -> Zipr_util.Bytebuf.t -> Db.t -> unit
(** Append the db's row records.  [boundaries] maps addresses to the
    instruction decoded there (the aggregate's boundary table): a row
    whose instruction is physically that value at its [orig_addr] gets
    bit 6 and no instruction bytes.  Raises [Invalid_argument] if a row
    was removed, since ids are not written. *)

val read_rows :
  boundaries:(int, Zvm.Insn.t * int) Hashtbl.t -> orig:Zelf.Binary.t -> reader -> Db.t
(** Rebuild a db from [add_rows] output.  A bit-6 row takes its
    instruction from [boundaries] (the table restore has already decoded
    from the input and length-checked); any other row decodes its bytes
    in place from the payload.  Raises [Failure] when an instruction does
    not decode to its recorded length, a bit-6 row has no [orig_addr] or
    no boundary at it, a flags byte is 128 or more, a row names an
    undeclared function, or {!Db.validate} reports an issue (dead links,
    a pin table disagreement, a dead entry). *)
