(* The system under test for the daemon workloads: the built
   [ziprtool serve] binary, run as a child process on a Unix socket so
   its heap, GC and peak RSS are its own.  One worker domain, one
   closed-loop connection at a time. *)

module Proto = Serve.Protocol

type t = {
  pid : int;
  sock : string;
  log : string;
  addr : Proto.addr;
  mutable stopped : bool;
}

(* Every daemon ever spawned, so an exception on any path still stops
   and reaps them. *)
let live : t list ref = ref []

let kill_all () =
  List.iter
    (fun d ->
      if not d.stopped then begin
        d.stopped <- true;
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
      end)
    !live

let () = at_exit kill_all

let ping addr =
  match Serve.Client.ping addr with
  | Ok { Proto.Response.status = Proto.Ok_; _ } -> true
  | Ok _ | Error _ -> false

(* Spawn and wait for the first answered ping. *)
let spawn ~exe ~dir ~delta =
  let file ext = Filename.concat dir (Printf.sprintf "daemon-%d.%s" (Unix.getpid ()) ext) in
  let sock = file "sock" and log = file "log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--socket"; sock; "--jobs"; "1"; "--ir-jobs"; "1" ]
      @ if delta then [ "--delta" ] else [])
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe argv Unix.stdin fd fd)
  in
  let d = { pid; sock; log; addr = Proto.Unix_path sock; stopped = false } in
  live := d :: !live;
  let deadline = Harness.now () +. 30.0 in
  let rec wait () =
    if ping d.addr then ()
    else if Harness.now () > deadline then Harness.broken "daemon never answered a ping"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
          d.stopped <- true;
          Harness.broken "daemon exited before its first ping (see %s)" log);
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  d

let peak_rss_kb d = Harness.vm_hwm_kb (string_of_int d.pid)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The ok count of the shutdown summary. *)
let summary_ok log =
  List.find_map
    (fun line ->
      try
        Scanf.sscanf line "ziprtool serve: shut down cleanly: %d requests (%d ok" (fun _ ok ->
            Some ok)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
    (String.split_on_char '\n' (read_file log))

(* SIGTERM, then require exit 0, the socket unlinked and the daemon's
   own ok tally equal to the client's. *)
let stop d ~client_ok =
  Unix.kill d.pid Sys.sigterm;
  let deadline = Harness.now () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Harness.now () > deadline then Harness.broken "daemon ignored SIGTERM for 30 s";
        Unix.sleepf 0.005;
        reap ()
    | _, status -> status
  in
  let status = reap () in
  d.stopped <- true;
  (match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Harness.broken "daemon exited with status %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Harness.broken "daemon stopped by signal %d" n);
  if Sys.file_exists d.sock then Harness.broken "daemon left its socket %s behind" d.sock;
  match summary_ok d.log with
  | Some ok when ok = client_ok -> Sys.remove d.log
  | Some ok -> Harness.broken "daemon counted %d ok responses, the client %d" ok client_ok
  | None -> Harness.broken "no shutdown summary in %s" d.log

(* One rewrite request on its own connection, as build systems send
   them: wait for the reply before sending the next. *)
type reply = {
  status : Proto.status;
  payload : string;
  message : string;
  latency_ms : float;  (** measured by the client *)
  exec_us : int;  (** the daemon's [elapsed_us] line *)
  queue_wait_us : int;
  frame_bytes : int;  (** request plus response frame; 0 unless asked for *)
}

let stat_line stats key =
  List.find_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i when String.sub line 0 i = key ->
          int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
      | _ -> None)
    (String.split_on_char '\n' stats)
  |> Option.value ~default:0

let next_id = ref 0L

let rewrite ?(frames = false) d ~transforms data =
  next_id := Int64.succ !next_id;
  let req =
    {
      Proto.Request.id = !next_id;
      deadline_us = 0;
      op = Proto.Rewrite { Proto.default_rewrite_config with Proto.transforms };
      payload = data;
    }
  in
  let t0 = Harness.now () in
  let r = Serve.Client.request d.addr req in
  let latency_ms = 1e3 *. (Harness.now () -. t0) in
  match r with
  | Error msg ->
      {
        status = Proto.Rewrite_error;
        payload = "";
        message = "transport: " ^ msg;
        latency_ms;
        exec_us = 0;
        queue_wait_us = 0;
        frame_bytes = 0;
      }
  | Ok resp ->
      {
        status = resp.Proto.Response.status;
        payload = resp.Proto.Response.payload;
        message = resp.Proto.Response.message;
        latency_ms;
        exec_us = stat_line resp.Proto.Response.stats "elapsed_us";
        queue_wait_us = stat_line resp.Proto.Response.stats "queue_wait_us";
        frame_bytes =
          (if frames then
             String.length (Proto.encode_request req) + String.length (Proto.encode_response resp)
           else 0);
      }

(* The serve layer as the client sees it, per request: the daemon's
   own execution time, its queue wait, and the rest of the round trip
   (connect, frame transfer, serialization of the reply). *)
let serve_metrics replies =
  (* A workload without a daemon never enters this layer: 0. *)
  let per f = if replies = [] then 0.0 else Harness.mean (List.map f replies) in
  let m = Harness.metric in
  [
    m "serve.exec_ms" "ms" (per (fun r -> float_of_int r.exec_us /. 1e3));
    m "serve.queue_wait_ms" "ms" (per (fun r -> float_of_int r.queue_wait_us /. 1e3));
    m "serve.transport_ms" "ms"
      (per (fun r -> r.latency_ms -. (float_of_int (r.exec_us + r.queue_wait_us) /. 1e3)));
    m "serve.frame_kb" "KiB" (per (fun r -> float_of_int r.frame_bytes /. 1024.0));
  ]
