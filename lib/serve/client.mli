(** Client library for the rewriting service.

    Connection-per-request: each call connects, exchanges exactly one
    frame pair and closes.  Total — connection failures, I/O errors and
    protocol-level garbage are all rendered into [Error string].

    Note that an [Ok response] still carries the {e server's} verdict in
    [response.status]; only transport/protocol failure is [Error]. *)

val request :
  ?max_response_bytes:int ->
  Protocol.addr ->
  Protocol.Request.t ->
  (Protocol.Response.t, string) result
(** Also checks that the echoed response id matches the request id. *)

val rewrite :
  ?deadline_us:int ->
  ?id:int64 ->
  ?max_response_bytes:int ->
  options:Zipr.Options.t ->
  Protocol.addr ->
  string ->
  (Protocol.Response.t, string) result
(** Send one input binary to be rewritten under [options], which travel
    as given: knobs left unset are not encoded, so the server's defaults
    apply and the config stays byte-identical to v1.
    {!Zipr.Options.default} asks for what [ziprtool rewrite] does with no
    flags, so a served rewrite is byte-comparable to the offline CLI.
    The server validates the knobs ([Bad_request] on an unknown transform
    or a malformed search knob). *)

val ping :
  ?sleep_us:int ->
  ?deadline_us:int ->
  ?id:int64 ->
  ?payload:string ->
  Protocol.addr ->
  (Protocol.Response.t, string) result
