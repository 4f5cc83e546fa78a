(** Wire protocol of the rewriting service (version 1).

    A versioned, length-prefixed binary framing: every frame is a fixed
    26-byte header (magic, version, opcode/status, request id, section
    lengths) followed by length-prefixed variable sections, so a reader
    always knows how many bytes it owes the stream.  See DESIGN.md §11
    for the byte-level layout and versioning rules.

    The reader is total over adversarial input: garbage, truncation,
    oversized length fields and malformed config strings all come back
    as [Error]s, never as exceptions — the property the protocol fuzz
    tests pin. *)

val request_magic : string
val response_magic : string
val version : int

val header_bytes : int
(** Fixed header size shared by both frame directions. *)

val default_max_payload : int

type rewrite_config = Zipr.Options.t = {
  transforms : string list;
  placement : string;
  seed : int;
  placement_budget : int option;
  placement_epsilon : float option;
  placement_weights : string;
  infer : bool option;
}
(** A rewrite request's knobs, re-exported from {!Zipr.Options.t}.  The
    config section is {!Zipr.Options.to_pairs} joined as [k=v;k=v] and
    read back by {!Zipr.Options.of_pairs}.  Transform names must not
    contain [','], [';'] or ['=']; registry names never do.  Unknown
    names are rejected by the server with [Bad_request], not at codec
    level. *)

val default_rewrite_config : rewrite_config

type op = Rewrite of rewrite_config | Ping of { sleep_us : int }
(** [Ping] echoes its payload after an optional server-side sleep — the
    health check, and the load/overload instrument of the test battery
    (a sleeping ping occupies a worker deterministically). *)

module Request : sig
  type t = {
    id : int64;  (** echoed verbatim in the response *)
    deadline_us : int;  (** per-request budget from admission; 0 = none *)
    op : op;
    payload : string;
  }

  val equal : t -> t -> bool
end

type status =
  | Ok_
  | Bad_request
  | Too_large
  | Overloaded
  | Deadline_exceeded
  | Rewrite_error
  | Shutting_down

val status_to_byte : status -> int
val status_of_byte : int -> status option
val status_to_string : status -> string

module Response : sig
  type t = {
    id : int64;
    status : status;
    message : string;  (** human-readable error text, empty on [Ok_] *)
    stats : string;
        (** key=value lines; lines prefixed ["det."] form the
            deterministic per-request summary, identical for a given
            (input, config) whatever the server's concurrency *)
    payload : string;
  }

  val equal : t -> t -> bool
end

(** {2 Addresses} *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

val addr_to_string : addr -> string
val sockaddr_of_addr : addr -> Unix.sockaddr
val domain_of_addr : addr -> Unix.socket_domain

(** {2 Errors} *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_op of int
  | Bad_status of int
  | Frame_too_large of { limit : int; got : int }
  | Truncated
  | Malformed of string
  | Io of string

val error_to_string : error -> string

type failure = { error : error; id : int64 option }
(** [id] is populated when the header parsed far enough to recover the
    request id, so a protocol-level reject can still echo it. *)

(** {2 Reading} *)

type input = bytes -> int -> int -> int
(** A [read]-shaped byte source: fill at most [len] bytes at [off],
    return the count, 0 at end of stream.  Short reads are expected —
    the reader loops — which is what makes split-read delivery (one byte
    at a time, if the network insists) transparent. *)

val input_of_string : ?chunk:int -> string -> input
(** [chunk] caps each read (default unlimited): the split-read test
    harness. *)

val input_of_fd : Unix.file_descr -> input

val read_request : ?max_payload:int -> input -> (Request.t, failure) result
(** Never raises: [Unix_error], EOF mid-frame, garbage and length fields
    beyond [max_payload] (default {!default_max_payload}) all map into
    [Error]. *)

val read_response : ?max_payload:int -> input -> (Response.t, failure) result
(** As {!read_request}; the default cap is larger because rewritten
    binaries outgrow their inputs. *)

(** {2 Writing} *)

val encode_request : Request.t -> string
val encode_response : Response.t -> string

val write_all : Unix.file_descr -> string -> unit
(** Loops over partial writes.  Raises [Unix_error] (e.g. [EPIPE]) —
    callers own the error policy for dead peers. *)

val send_request : Unix.file_descr -> Request.t -> unit
val send_response : Unix.file_descr -> Response.t -> unit
