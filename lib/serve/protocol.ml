(* The wire protocol of the rewriting service: version 1.

   Both directions use one fixed 26-byte header followed by
   length-prefixed variable sections, so a reader always knows exactly
   how many bytes to expect next — no sentinels, no scanning.  All
   integers are little-endian.

   Request frame:

     offset  size  field
          0     4  magic "ZSRQ"
          4     2  protocol version (u16, = 1)
          6     1  opcode (1 = rewrite, 2 = ping)
          7     1  reserved (0)
          8     8  request id (u64, echoed verbatim in the response)
         16     4  deadline_us (u32, 0 = no deadline)
         20     2  config length C (u16)
         22     4  payload length P (u32)
         26     C  config: ';'-separated key=value pairs
        26+C    P  payload (input binary for rewrite; echoed for ping)

   Response frame:

     offset  size  field
          0     4  magic "ZSRP"
          4     2  protocol version (u16, = 1)
          6     1  status code
          7     1  reserved (0)
          8     8  request id (echo; 0 when the request id never parsed)
         16     2  message length M (u16)
         18     4  stats length S (u32)
         22     4  payload length P (u32)
         26     M  message (human-readable error text, empty on ok)
        26+M    S  stats (key=value lines; "det."-prefixed lines form the
                   deterministic per-request summary)
        26+M+S  P  payload (rewritten binary, or the ping echo)

   Versioning rules: the magic never changes; bumping [version] is a
   breaking change and a reader must reject versions it does not speak
   (status [Bad_request] with a [Bad_version] message).  Unknown config
   keys are ignored, so new optional request knobs do not need a version
   bump; new opcodes and any header-layout change do. *)

let request_magic = "ZSRQ"
let response_magic = "ZSRP"
let version = 1
let header_bytes = 26

let default_max_payload = 64 * 1024 * 1024

type rewrite_config = Zipr.Options.t = {
  transforms : string list;
  placement : string;
  seed : int;
  placement_budget : int option;
  placement_epsilon : float option;
  placement_weights : string;
  infer : bool option;
}

let default_rewrite_config = Zipr.Options.default

type op = Rewrite of rewrite_config | Ping of { sleep_us : int }

module Request = struct
  type t = { id : int64; deadline_us : int; op : op; payload : string }

  let equal a b =
    a.id = b.id && a.deadline_us = b.deadline_us && a.op = b.op && a.payload = b.payload
end

type status =
  | Ok_
  | Bad_request
  | Too_large
  | Overloaded
  | Deadline_exceeded
  | Rewrite_error
  | Shutting_down

let status_to_byte = function
  | Ok_ -> 0
  | Bad_request -> 1
  | Too_large -> 2
  | Overloaded -> 3
  | Deadline_exceeded -> 4
  | Rewrite_error -> 5
  | Shutting_down -> 6

let status_of_byte = function
  | 0 -> Some Ok_
  | 1 -> Some Bad_request
  | 2 -> Some Too_large
  | 3 -> Some Overloaded
  | 4 -> Some Deadline_exceeded
  | 5 -> Some Rewrite_error
  | 6 -> Some Shutting_down
  | _ -> None

let status_to_string = function
  | Ok_ -> "ok"
  | Bad_request -> "bad_request"
  | Too_large -> "too_large"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Rewrite_error -> "rewrite_error"
  | Shutting_down -> "shutting_down"

module Response = struct
  type t = { id : int64; status : status; message : string; stats : string; payload : string }

  let equal a b =
    a.id = b.id && a.status = b.status && a.message = b.message && a.stats = b.stats
    && a.payload = b.payload
end

(* -- addresses -- *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of_addr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let domain_of_addr = function Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

(* -- config strings -- *)

let op_byte = function Rewrite _ -> 1 | Ping _ -> 2

let config_of_op op =
  let pairs =
    match op with
    | Rewrite c -> Zipr.Options.to_pairs c
    | Ping { sleep_us } -> [ ("sleep_us", string_of_int sleep_us) ]
  in
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) pairs)

(* Pairs split at their FIRST '=', so values may contain '='. *)
let split_pairs s =
  String.split_on_char ';' s
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (kv, "")
           | Some i ->
               Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1)))

(* Unknown keys are ignored (forward compatibility); known keys with
   unparseable values are malformed. *)
let op_of_config opb config =
  let pairs = split_pairs config in
  Result.map_error (fun msg -> "config: " ^ msg)
    (match opb with
    | 1 -> Result.map (fun c -> Rewrite c) (Zipr.Options.of_pairs pairs)
    | _ (* 2: [read_request] rejects every other opcode first *) ->
        List.fold_left
          (fun acc (k, v) ->
            Result.bind acc (fun sleep_us ->
                match (k, int_of_string_opt v) with
                | "sleep_us", Some n -> Ok n
                | "sleep_us", None ->
                    Error (Printf.sprintf "sleep_us is not an integer: %S" v)
                | _ -> Ok sleep_us))
          (Ok 0) pairs
        |> Result.map (fun sleep_us -> Ping { sleep_us }))

(* -- errors -- *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_op of int
  | Bad_status of int
  | Frame_too_large of { limit : int; got : int }
  | Truncated
  | Malformed of string
  | Io of string

let error_to_string = function
  | Bad_magic -> "bad magic: not a ZSRQ/ZSRP frame"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d (speaking %d)" v version
  | Bad_op n -> Printf.sprintf "unknown opcode %d" n
  | Bad_status n -> Printf.sprintf "unknown status code %d" n
  | Frame_too_large { limit; got } ->
      Printf.sprintf "frame too large: %d bytes exceeds the %d-byte limit" got limit
  | Truncated -> "truncated frame: connection closed mid-frame"
  | Malformed msg -> "malformed frame: " ^ msg
  | Io msg -> "i/o error: " ^ msg

type failure = { error : error; id : int64 option }
(* [id] is the request id when the header parsed far enough to know it —
   so a reject response can still echo it. *)

(* -- the framing reader -- *)

(* An input is a [read]-shaped function: fill at most [len] bytes at
   [off], return how many were filled, 0 at end of stream.  Sockets,
   strings and deliberately-fragmented test harnesses all fit. *)
type input = bytes -> int -> int -> int

let input_of_string ?(chunk = max_int) s : input =
  let chunk = max 1 chunk in
  let pos = ref 0 in
  fun buf off len ->
    let n = min (min len chunk) (String.length s - !pos) in
    if n <= 0 then 0
    else begin
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n
    end

let input_of_fd fd : input = fun buf off len -> Unix.read fd buf off len

(* Read exactly [len] bytes; every OS-level surprise — short reads, EOF,
   socket errors, receive timeouts — comes back as an [Error], never as
   an exception.  This is the property the garbage/fuzz tests pin. *)
let read_exact (input : input) buf off len =
  let rec go off len =
    if len = 0 then Ok ()
    else
      match input buf off len with
      | 0 -> Error Truncated
      | n when n > 0 -> go (off + n) (len - n)
      | _ -> Error (Io "input returned a negative count")
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
      | exception Sys_error m -> Error (Io m)
      | exception End_of_file -> Error Truncated
  in
  go off len

let read_u32 h off = Int32.to_int (Bytes.get_int32_le h off) land 0xFFFFFFFF

let read_section input ~limit ~what:_ len k =
  if len > limit then Error (Frame_too_large { limit; got = len })
  else
    let buf = Bytes.create len in
    match read_exact input buf 0 len with
    | Error e -> Error e
    | Ok () -> k (Bytes.unsafe_to_string buf)

let read_request ?(max_payload = default_max_payload) (input : input) :
    (Request.t, failure) result =
  let h = Bytes.create header_bytes in
  let anon error = Error { error; id = None } in
  match read_exact input h 0 header_bytes with
  | Error e -> anon e
  | Ok () ->
      if Bytes.sub_string h 0 4 <> request_magic then anon Bad_magic
      else
        let v = Bytes.get_uint16_le h 4 in
        if v <> version then anon (Bad_version v)
        else
          let opb = Bytes.get_uint8 h 6 in
          let id = Bytes.get_int64_le h 8 in
          let deadline_us = read_u32 h 16 in
          let clen = Bytes.get_uint16_le h 20 in
          let plen = read_u32 h 22 in
          let fail error = Error { error; id = Some id } in
          let section ~limit ~what len k =
            Result.map_error (fun error -> { error; id = Some id })
              (read_section input ~limit ~what len k)
          in
          if opb <> 1 && opb <> 2 then fail (Bad_op opb)
          else
            section ~limit:65535 ~what:"config" clen (fun config ->
                read_section input ~limit:max_payload ~what:"payload" plen (fun payload ->
                    match op_of_config opb config with
                    | Error msg -> Error (Malformed msg)
                    | Ok op -> Ok { Request.id; deadline_us; op; payload }))

let read_response ?(max_payload = 4 * default_max_payload) (input : input) :
    (Response.t, failure) result =
  let h = Bytes.create header_bytes in
  let anon error = Error { error; id = None } in
  match read_exact input h 0 header_bytes with
  | Error e -> anon e
  | Ok () ->
      if Bytes.sub_string h 0 4 <> response_magic then anon Bad_magic
      else
        let v = Bytes.get_uint16_le h 4 in
        if v <> version then anon (Bad_version v)
        else
          let sb = Bytes.get_uint8 h 6 in
          let id = Bytes.get_int64_le h 8 in
          let mlen = Bytes.get_uint16_le h 16 in
          let slen = read_u32 h 18 in
          let plen = read_u32 h 22 in
          let wrap r = Result.map_error (fun error -> { error; id = Some id }) r in
          match status_of_byte sb with
          | None -> Error { error = Bad_status sb; id = Some id }
          | Some status ->
              wrap
                (read_section input ~limit:65535 ~what:"message" mlen (fun message ->
                     read_section input ~limit:max_payload ~what:"stats" slen (fun stats ->
                         read_section input ~limit:max_payload ~what:"payload" plen
                           (fun payload ->
                             Ok { Response.id; status; message; stats; payload }))))

(* -- encoders -- *)

let encode_request (r : Request.t) =
  let config = config_of_op r.op in
  let h = Bytes.create header_bytes in
  Bytes.blit_string request_magic 0 h 0 4;
  Bytes.set_uint16_le h 4 version;
  Bytes.set_uint8 h 6 (op_byte r.op);
  Bytes.set_uint8 h 7 0;
  Bytes.set_int64_le h 8 r.id;
  Bytes.set_int32_le h 16 (Int32.of_int (r.deadline_us land 0xFFFFFFFF));
  Bytes.set_uint16_le h 20 (String.length config);
  Bytes.set_int32_le h 22 (Int32.of_int (String.length r.payload));
  Bytes.unsafe_to_string h ^ config ^ r.payload

let encode_response (r : Response.t) =
  let h = Bytes.create header_bytes in
  Bytes.blit_string response_magic 0 h 0 4;
  Bytes.set_uint16_le h 4 version;
  Bytes.set_uint8 h 6 (status_to_byte r.status);
  Bytes.set_uint8 h 7 0;
  Bytes.set_int64_le h 8 r.id;
  Bytes.set_uint16_le h 16 (String.length r.message);
  Bytes.set_int32_le h 18 (Int32.of_int (String.length r.stats));
  Bytes.set_int32_le h 22 (Int32.of_int (String.length r.payload));
  Bytes.unsafe_to_string h ^ r.message ^ r.stats ^ r.payload

(* -- socket writes -- *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let send_request fd r = write_all fd (encode_request r)
let send_response fd r = write_all fd (encode_response r)
