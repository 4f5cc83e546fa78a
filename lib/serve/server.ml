(* The long-running rewriting daemon.

   One accept loop (the domain that calls [serve]) reads each request
   frame, then hands {request, connection} to the shared [Parallel.Pool]
   — the worker rewrites, writes the response frame and closes the
   connection.  Three layers keep overload graceful:

     - the framing reader bounds every section it reads (max_request_bytes),
       so a hostile length field cannot allocate unbounded memory;
     - [Admission] bounds the number of admitted-but-unstarted requests,
       so a flood gets fast [Overloaded] responses while queue memory
       stays constant;
     - per-request deadlines reject work that waited too long instead of
       burning a worker on a response nobody is waiting for.

   The IR cache is shared across every request (multi-tenant, LRU, byte
   budget): clients rewriting the same binary under different transform
   configs — the fleet/CI scenario — pay for IR construction once.

   Protocol: one request per connection.  The client connects, sends one
   frame, reads one frame; the server closes.  v1 keeps connection state
   trivially per-request; a keep-alive loop is a compatible v2 change
   (the framing already self-delimits). *)

type config = {
  jobs : int;
  queue_bound : int;
  max_request_bytes : int;
  cache_entries : int;
  cache_max_bytes : int;
  cache_dir : string option;
  cache_disk_entries : int option;
  cache_disk_bytes : int option;
  defaults : Zipr.Options.t;  (* the knobs a request leaves unset *)
}

let default_config =
  {
    jobs = 2;
    queue_bound = 32;
    max_request_bytes = 64 * 1024 * 1024;
    cache_entries = 256;
    cache_max_bytes = 64 * 1024 * 1024;
    cache_dir = None;
    cache_disk_entries = None;
    cache_disk_bytes = None;
    defaults = Zipr.Options.default;
  }

(* The accept loop reads each request frame itself, so a client that
   connects and then goes quiet stalls it for at most this long. *)
let read_timeout_s = 10.0

(* A ping may sleep on its worker for at most this long, whatever the
   client asks for. *)
let max_ping_sleep_us = 30_000_000

type stats = {
  accepted : int;  (* request frames that decoded *)
  ok : int;
  bad_request : int;
  too_large : int;
  overloaded : int;
  deadline_exceeded : int;
  rewrite_errors : int;
  shutting_down : int;
  pings : int;
  cache_hits : int;
  cache_misses : int;
  queue_high_water : int;
  queue_bound : int;
  cache_resident_bytes : int;
  cache_evictions : int;
}

type cells = {
  c_accepted : int Atomic.t;
  c_ok : int Atomic.t;
  c_bad_request : int Atomic.t;
  c_too_large : int Atomic.t;
  c_overloaded : int Atomic.t;
  c_deadline : int Atomic.t;
  c_rewrite_errors : int Atomic.t;
  c_shutting_down : int Atomic.t;
  c_pings : int Atomic.t;
  c_cache_hits : int Atomic.t;
  c_cache_misses : int Atomic.t;
}

type t = {
  cfg : config;
  resolve : string -> Zipr.Transform.t option;
  sock : Unix.file_descr;
  address : Protocol.addr;
  unlink_on_close : string option;
  pool : Parallel.Pool.t;
  adm : Admission.t;
  cache : Irdb.Cache.t;
  stop_flag : bool Atomic.t;
  c : cells;
}

let now () = Unix.gettimeofday ()

let listen_socket addr =
  let sock = Unix.socket (Protocol.domain_of_addr addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Protocol.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true);
  Unix.bind sock (Protocol.sockaddr_of_addr addr);
  Unix.listen sock 128;
  (* A TCP bind to port 0 gets a kernel-chosen port; report the real one. *)
  let address =
    match (addr, Unix.getsockname sock) with
    | Protocol.Tcp { host; _ }, Unix.ADDR_INET (_, port) -> Protocol.Tcp { host; port }
    | _ -> addr
  in
  (sock, address)

let create ?(config = default_config) ~resolve_transform addr =
  (* A client that vanished mid-response must surface as EPIPE, not kill
     the daemon. *)
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock, address = listen_socket addr in
  {
    cfg = config;
    resolve = resolve_transform;
    sock;
    address;
    unlink_on_close = (match addr with Protocol.Unix_path p -> Some p | Tcp _ -> None);
    pool = Parallel.Pool.create ~capacity:(max 1 config.queue_bound) ~jobs:(max 1 config.jobs) ();
    adm = Admission.create ~bound:config.queue_bound;
    cache =
      Irdb.Cache.create ~capacity:(max 1 config.cache_entries)
        ~max_bytes:(max 1 config.cache_max_bytes) ?dir:config.cache_dir
        ?max_disk_entries:config.cache_disk_entries
        ?max_disk_bytes:config.cache_disk_bytes ();
    stop_flag = Atomic.make false;
    c =
      {
        c_accepted = Atomic.make 0;
        c_ok = Atomic.make 0;
        c_bad_request = Atomic.make 0;
        c_too_large = Atomic.make 0;
        c_overloaded = Atomic.make 0;
        c_deadline = Atomic.make 0;
        c_rewrite_errors = Atomic.make 0;
        c_shutting_down = Atomic.make 0;
        c_pings = Atomic.make 0;
        c_cache_hits = Atomic.make 0;
        c_cache_misses = Atomic.make 0;
      };
  }

let address t = t.address
let cache t = t.cache
let admission t = t.adm

let stats t =
  {
    accepted = Atomic.get t.c.c_accepted;
    ok = Atomic.get t.c.c_ok;
    bad_request = Atomic.get t.c.c_bad_request;
    too_large = Atomic.get t.c.c_too_large;
    overloaded = Atomic.get t.c.c_overloaded;
    deadline_exceeded = Atomic.get t.c.c_deadline;
    rewrite_errors = Atomic.get t.c.c_rewrite_errors;
    shutting_down = Atomic.get t.c.c_shutting_down;
    pings = Atomic.get t.c.c_pings;
    cache_hits = Atomic.get t.c.c_cache_hits;
    cache_misses = Atomic.get t.c.c_cache_misses;
    queue_high_water = Admission.high_water t.adm;
    queue_bound = Admission.bound t.adm;
    cache_resident_bytes = Irdb.Cache.resident_bytes t.cache;
    cache_evictions = Irdb.Cache.evictions t.cache;
  }

let stop t = Atomic.set t.stop_flag true

(* -- responses -- *)

let count_status t (status : Protocol.status) =
  let cell =
    match status with
    | Protocol.Ok_ -> t.c.c_ok
    | Bad_request -> t.c.c_bad_request
    | Too_large -> t.c.c_too_large
    | Overloaded -> t.c.c_overloaded
    | Deadline_exceeded -> t.c.c_deadline
    | Rewrite_error -> t.c.c_rewrite_errors
    | Shutting_down -> t.c.c_shutting_down
  in
  Atomic.incr cell

let response ?(message = "") ?(stats = "") ?(payload = "") ~id status =
  { Protocol.Response.id; status; message; stats; payload }

(* Best-effort write: the peer may be gone, which is its problem. *)
let respond t fd (r : Protocol.Response.t) =
  count_status t r.status;
  (match r.status with
  | Protocol.Ok_ -> ()
  | s -> Obs.count "serve.rejects" 1 |> fun () -> ignore s);
  try Protocol.send_response fd r with Unix.Unix_error _ | Sys_error _ -> ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* -- request execution (worker side) -- *)

(* The deterministic per-request summary: every line is a pure function
   of (input bytes, config), so N clients asking concurrently — at any
   worker count — read identical ["det."] lines.  Wall-clock facts live
   in the unprefixed lines below. *)
let stats_text ~(rc : Zipr.Options.t) ~(config : Zipr.Pipeline.config) ~input_bytes
    ~output_bytes ~(rs : Zipr.Reassemble.stats) ~(tally : Disasm.Aggregate.tally)
    ~cache_outcome ~elapsed_us ~queue_wait_us =
  String.concat ""
    [
      (* Aggregator per-case byte accounting, one det.agg.* line per
         canonical tally field — deterministic like every det.* line. *)
      String.concat ""
        (List.map
           (fun (k, v) -> Printf.sprintf "det.agg.%s=%d\n" k v)
           (Disasm.Aggregate.tally_fields tally));
      Printf.sprintf "det.chain_hops=%d\n" rs.Zipr.Reassemble.chain_hops;
      Printf.sprintf "det.dollops_placed=%d\n" rs.Zipr.Reassemble.dollops_placed;
      Printf.sprintf "det.dollops_split=%d\n" rs.Zipr.Reassemble.dollops_split;
      Printf.sprintf "det.infer=%d\n" (if config.Zipr.Pipeline.infer then 1 else 0);
      Printf.sprintf "det.input_bytes=%d\n" input_bytes;
      Printf.sprintf "det.output_bytes=%d\n" output_bytes;
      Printf.sprintf "det.page_misses=%d\n" rs.Zipr.Reassemble.page_misses;
      Printf.sprintf "det.pins_colocated=%d\n" rs.Zipr.Reassemble.pins_colocated;
      Printf.sprintf "det.pins_total=%d\n" rs.Zipr.Reassemble.pins_total;
      Printf.sprintf "det.placement=%s\n" rc.placement;
      Printf.sprintf "det.placement_cost=%.3f\n" rs.Zipr.Reassemble.placement_cost;
      Printf.sprintf "det.search_accepted=%d\n" rs.Zipr.Reassemble.search_accepted;
      Printf.sprintf "det.search_iterations=%d\n" rs.Zipr.Reassemble.search_iterations;
      Printf.sprintf "det.search_rejected=%d\n" rs.Zipr.Reassemble.search_rejected;
      Printf.sprintf "det.seed=%d\n" rc.seed;
      Printf.sprintf "det.sled_bytes=%d\n" rs.Zipr.Reassemble.sled_bytes;
      Printf.sprintf "det.sled_entries=%d\n" rs.Zipr.Reassemble.sled_entries;
      Printf.sprintf "det.sleds=%d\n" rs.Zipr.Reassemble.sleds;
      Printf.sprintf "det.transforms=%s\n" (String.concat "," rc.transforms);
      Printf.sprintf "elapsed_us=%d\n" elapsed_us;
      Printf.sprintf "ir_cache=%s\n" cache_outcome;
      Printf.sprintf "queue_wait_us=%d\n" queue_wait_us;
    ]

(* The request's set knobs win over the daemon's defaults; the
   effective infer is echoed in det.infer so clients can confirm what
   the server actually ran with. *)
let exec_rewrite t ~id ~queue_wait_us (rc : Zipr.Options.t) payload =
  let rc = Zipr.Options.merge ~defaults:t.cfg.defaults rc in
  match Zipr.Options.resolve ~resolve_transform:t.resolve rc with
  | Error message -> response ~id Protocol.Bad_request ~message
  | Ok (config, transforms) -> (
      match Zelf.Binary.parse (Bytes.of_string payload) with
      | Error e ->
          response ~id Protocol.Bad_request
            ~message:(Format.asprintf "input does not parse: %a" Zelf.Binary.pp_parse_error e)
      | Ok binary -> (
          let t0 = now () in
          match
            Zipr.Pipeline.try_rewrite ~config ~ir_cache:t.cache ~transforms binary
          with
          | Error msg -> response ~id Protocol.Rewrite_error ~message:msg
          | Ok r ->
              let elapsed_us = int_of_float ((now () -. t0) *. 1e6) in
              let cache = r.Zipr.Pipeline.cache in
              Atomic.fetch_and_add t.c.c_cache_hits cache.Zipr.Pipeline.ir_cache_hits
              |> ignore;
              Atomic.fetch_and_add t.c.c_cache_misses cache.Zipr.Pipeline.ir_cache_misses
              |> ignore;
              let out = Zelf.Binary.serialize r.Zipr.Pipeline.rewritten in
              let stats =
                stats_text ~rc ~config ~input_bytes:(String.length payload)
                  ~output_bytes:(Bytes.length out) ~rs:r.Zipr.Pipeline.stats
                  ~tally:
                    r.Zipr.Pipeline.ir.Zipr.Ir_construction.aggregate
                      .Disasm.Aggregate.tally
                  ~cache_outcome:
                    (if cache.Zipr.Pipeline.ir_cache_hits > 0 then "hit" else "miss")
                  ~elapsed_us ~queue_wait_us
              in
              response ~id Protocol.Ok_ ~stats ~payload:(Bytes.unsafe_to_string out)))

let run_request t fd (req : Protocol.Request.t) ~admitted_at ~worker:_ =
  Admission.started t.adm;
  Fun.protect
    ~finally:(fun () ->
      close_quietly fd;
      Admission.finished t.adm)
    (fun () ->
      Obs.span ~root:true "serve.request" (fun () ->
          let queue_wait_us = int_of_float ((now () -. admitted_at) *. 1e6) in
          let id = req.id in
          if req.deadline_us > 0 && queue_wait_us > req.deadline_us then begin
            Obs.count "serve.deadline_exceeded" 1;
            respond t fd
              (response ~id Protocol.Deadline_exceeded
                 ~message:
                   (Printf.sprintf "deadline of %d us exceeded: %d us in queue" req.deadline_us
                      queue_wait_us))
          end
          else
            match req.op with
            | Protocol.Ping { sleep_us } ->
                Atomic.incr t.c.c_pings;
                let sleep_us = min (max 0 sleep_us) max_ping_sleep_us in
                if sleep_us > 0 then Unix.sleepf (float_of_int sleep_us /. 1e6);
                respond t fd
                  (response ~id Protocol.Ok_
                     ~stats:(Printf.sprintf "queue_wait_us=%d\n" queue_wait_us)
                     ~payload:req.payload)
            | Protocol.Rewrite rc ->
                respond t fd (exec_rewrite t ~id ~queue_wait_us rc req.payload)))

(* -- accept loop -- *)

let handle_conn t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  match
    Protocol.read_request ~max_payload:t.cfg.max_request_bytes (Protocol.input_of_fd fd)
  with
  | Error { error; id } ->
      let id = Option.value id ~default:0L in
      let status =
        match error with
        | Protocol.Frame_too_large _ -> Protocol.Too_large
        | _ -> Protocol.Bad_request
      in
      respond t fd (response ~id status ~message:(Protocol.error_to_string error));
      close_quietly fd
  | Ok req ->
      Atomic.incr t.c.c_accepted;
      Obs.count "serve.requests" 1;
      let overloaded ~status message =
        respond t fd (response ~id:req.id status ~message);
        close_quietly fd
      in
      if not (Admission.try_admit t.adm) then
        overloaded ~status:Protocol.Overloaded
          (Printf.sprintf "admission queue full (bound %d)" (Admission.bound t.adm))
      else begin
        let admitted_at = now () in
        match
          Parallel.Pool.try_submit t.pool (fun ~worker ~wait_s:_ ->
              run_request t fd req ~admitted_at ~worker)
        with
        | Parallel.Pool.Submitted -> ()
        | Parallel.Pool.Queue_full ->
            Admission.cancel t.adm;
            overloaded ~status:Protocol.Overloaded
              (Printf.sprintf "worker queue full (bound %d)" (Admission.bound t.adm))
        | Parallel.Pool.Closed ->
            Admission.cancel t.adm;
            overloaded ~status:Protocol.Shutting_down "server is shutting down"
      end

let serve t =
  let rec loop () =
    if Atomic.get t.stop_flag then ()
    else begin
      (match Unix.select [ t.sock ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.sock with
          | fd, _ -> handle_conn t fd
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* Drain: tasks already admitted to the pool still run to completion —
     accepted requests get real responses, not resets. *)
  (try ignore (Parallel.Pool.shutdown t.pool) with _ -> ());
  close_quietly t.sock;
  Option.iter (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ()) t.unlink_on_close
