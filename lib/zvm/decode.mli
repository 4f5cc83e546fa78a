(** Binary decoder for ZVM instructions.

    The decoder is total over byte sequences: every input either decodes to
    an instruction with its length or produces a descriptive error.  As on
    x86, many data bytes decode into valid instructions, which is what
    makes code/data disambiguation genuinely hard for the disassemblers
    built on top of this module.

    There is one decoder; the entry points below differ only in where the
    bytes come from.  It reads exactly the bytes an instruction needs: in
    ascending address order, each byte once, stopping at the first field
    that decides the result.  A decode returning [Ok (_, n)] has read the
    [n] bytes of the instruction and no others; a decode returning an
    error has read up to and including the byte that caused it (the
    opcode for [Bad_opcode], the register byte for [Bad_register], the
    first unreadable byte for [Truncated]).  Callers that observe reads,
    such as the VM marking pages as touched, rely on this. *)

type error =
  | Bad_opcode of int  (** first byte is not an opcode *)
  | Bad_register of int  (** register field out of range *)
  | Truncated  (** instruction extends past the available bytes *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val decode : fetch:(int -> int option) -> int -> (Insn.t * int, error) result
(** [decode ~fetch addr] decodes one instruction whose first byte is at
    [addr].  [fetch a] returns the byte at address [a], or [None] if [a] is
    not readable.  On success, returns the instruction and its encoded
    length. *)

val decode_sub : bytes -> pos:int -> limit:int -> (Insn.t * int, error) result
(** [decode_sub b ~pos ~limit] decodes the instruction at offset [pos] of
    [b], treating offsets at or past [limit] (and below 0) as unreadable:
    an instruction that would extend past [limit] is [Truncated].  It
    reads [b] in place, with no allocation per byte, which is what the
    disassemblers that decode a whole section want.  Raises
    [Invalid_argument] unless [0 <= limit <= Bytes.length b]. *)

val decode_bytes : bytes -> pos:int -> (Insn.t * int, error) result
(** Decode from a byte string at offset [pos]
    ([decode_sub] with [limit = Bytes.length b]). *)

val decode_all : bytes -> (Insn.t list, int * error) result
(** Decode a byte string as a dense instruction sequence; on failure,
    reports the offset of the undecodable instruction. *)
