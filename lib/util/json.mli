(** JSON documents: one value type and one printer, so every JSON file
    the tools write (traces, reports, bench results) agrees on escaping,
    separators and number format. *)

type t =
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (n, x)] prints [x] with [n] decimals, as [%.nf] does; a
          non-finite [x] prints as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members print in list order *)

val to_string : t -> string
(** The document, newline-terminated.  The outer two levels put one
    member per line, indented two spaces per level; deeper values print
    on one line, so a list of records reads one record per line.
    Strings escape the double quote, the backslash and every byte below
    0x20 (as [\u00XX]); other bytes pass through unchanged. *)
