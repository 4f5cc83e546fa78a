(* Client side of the rewriting service.

   Connection-per-request, mirroring the server's one-frame contract:
   connect, send one request frame, read one response frame, close.
   Every failure mode — refused connection, dead peer, protocol garbage
   from a confused server — comes back as [Error string]; nothing here
   raises, so callers (the CLI, perfbench, the tests) can
   treat a request as a total function. *)

let connect addr =
  let fd = Unix.socket (Protocol.domain_of_addr addr) Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Protocol.sockaddr_of_addr addr);
    Ok fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "connect %s: %s" (Protocol.addr_to_string addr) (Unix.error_message e))

let request ?max_response_bytes addr (req : Protocol.Request.t) :
    (Protocol.Response.t, string) result =
  match connect addr with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Protocol.send_request fd req with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "send: %s" (Unix.error_message e))
          | () -> (
              (* Half-close the write side so a server that reads to EOF
                 is not kept waiting; ignore failures (not all socket
                 types support it, and the frame is self-delimiting). *)
              (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
              match Protocol.read_response ?max_payload:max_response_bytes (Protocol.input_of_fd fd) with
              | Ok resp ->
                  if resp.Protocol.Response.id <> req.id then
                    Error
                      (Printf.sprintf "response id mismatch: sent %Ld, got %Ld" req.id
                         resp.Protocol.Response.id)
                  else Ok resp
              | Error f -> Error (Protocol.error_to_string f.Protocol.error)))

let rewrite ?(deadline_us = 0) ?(id = 1L) ?max_response_bytes ~options addr data =
  request ?max_response_bytes addr
    { Protocol.Request.id; deadline_us; op = Protocol.Rewrite options; payload = data }

let ping ?(sleep_us = 0) ?(deadline_us = 0) ?(id = 1L) ?(payload = "ping") addr =
  request addr { Protocol.Request.id; deadline_us; op = Protocol.Ping { sleep_us }; payload }
