(* The rewriting-service battery: wire-codec round-trips (split reads
   included), garbage/truncation fuzz over the framing reader, admission
   control unit tests, and in-process end-to-end tests of the daemon —
   byte-identity of served rewrites against the offline pipeline at 1
   and 8 concurrent clients, shared-cache hits, deadlines, floods and
   clean shutdown. *)

module P = Serve.Protocol
module Server = Serve.Server
module Client = Serve.Client
module Admission = Serve.Admission

(* -- codec: hand-picked round trips at several read granularities -- *)

let sample_requests : P.Request.t list =
  [
    {
      P.Request.id = 1L;
      deadline_us = 0;
      op = P.Rewrite { P.default_rewrite_config with P.transforms = [ "null" ] };
      payload = "hello";
    };
    {
      P.Request.id = -7L;
      deadline_us = 250_000;
      op =
        P.Rewrite
          {
            P.transforms = [ "cfi"; "stack-pad" ];
            placement = "random";
            seed = 42;
            placement_budget = Some 8;
            placement_epsilon = Some 0.25;
            placement_weights = "sled=2,chain=8";
            ir_jobs = Some 4;
            infer = Some true;
          };
      payload = String.init 257 (fun i -> Char.chr (i mod 256));
    };
    { P.Request.id = Int64.max_int; deadline_us = 1; op = P.Ping { sleep_us = 0 }; payload = "" };
    {
      P.Request.id = 0L;
      deadline_us = 0;
      op = P.Rewrite { P.default_rewrite_config with P.transforms = []; placement = "naive"; seed = 0 };
      payload = "\x00\x00\xff";
    };
  ]

let sample_responses : P.Response.t list =
  [
    { P.Response.id = 9L; status = P.Ok_; message = ""; stats = "det.x=1\n"; payload = "out" };
    {
      P.Response.id = -1L;
      status = P.Overloaded;
      message = "queue full";
      stats = "";
      payload = "";
    };
    {
      P.Response.id = 3L;
      status = P.Rewrite_error;
      message = "reassembly failed";
      stats = "elapsed_us=12\n";
      payload = String.make 300 '\xfe';
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let wire = P.encode_request req in
      List.iter
        (fun chunk ->
          match P.read_request (P.input_of_string ~chunk wire) with
          | Ok got ->
              Alcotest.(check bool)
                (Printf.sprintf "request round-trips (chunk %d)" chunk)
                true (P.Request.equal req got)
          | Error f -> Alcotest.failf "decode failed: %s" (P.error_to_string f.P.error))
        [ 1; 3; 7; max_int ])
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      let wire = P.encode_response resp in
      List.iter
        (fun chunk ->
          match P.read_response (P.input_of_string ~chunk wire) with
          | Ok got ->
              Alcotest.(check bool)
                (Printf.sprintf "response round-trips (chunk %d)" chunk)
                true (P.Response.equal resp got)
          | Error f -> Alcotest.failf "decode failed: %s" (P.error_to_string f.P.error))
        [ 1; 5; max_int ])
    sample_responses

(* -- codec: QCheck round-trip and never-raise fuzz -- *)

let gen_request =
  let open QCheck.Gen in
  let name = oneofl [ "null"; "cfi"; "canary"; "stack-pad"; "shadow-stack"; "x" ] in
  let knobs =
    pair
      (triple
         (oneofl [ None; Some 1; Some 16; Some 4096 ])
         (oneofl [ None; Some 0.0; Some 0.25; Some 0.125; Some 1.0 ])
         (oneofl [ ""; "sled=2"; "sled=1,chain=16,relax=3,overflow=1,page=64" ]))
      (pair
         (oneofl [ None; Some 0; Some 1; Some 4; Some 64 ])
         (oneofl [ None; Some false; Some true ]))
  in
  let rc =
    map3
      (fun transforms placement
           (seed, ((placement_budget, placement_epsilon, placement_weights), (ir_jobs, infer))) ->
        {
          P.transforms;
          placement;
          seed;
          placement_budget;
          placement_epsilon;
          placement_weights;
          ir_jobs;
          infer;
        })
      (list_size (0 -- 4) name)
      (oneofl [ "optimized"; "naive"; "random"; "search"; "p0" ])
      (pair (0 -- 100_000) knobs)
  in
  let op =
    oneof
      [ map (fun c -> P.Rewrite c) rc; map (fun s -> P.Ping { sleep_us = s }) (0 -- 500_000) ]
  in
  map3
    (fun id (deadline_us, op) payload -> { P.Request.id; deadline_us; op; payload })
    (map Int64.of_int int)
    (pair (0 -- 1_000_000) op)
    (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 600))

let print_request (r : P.Request.t) =
  Printf.sprintf "{id=%Ld; deadline=%d; op=%s; payload=%S}" r.id r.deadline_us
    (match r.op with
    | P.Rewrite c ->
        Printf.sprintf "rewrite[%s/%s/%d]" (String.concat "," c.transforms) c.placement c.seed
    | P.Ping { sleep_us } -> Printf.sprintf "ping[%d]" sleep_us)
    r.payload

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"encode |> read = id, at any read granularity"
    (QCheck.make ~print:print_request gen_request)
    (fun req ->
      let wire = P.encode_request req in
      let chunk = 1 + (String.length req.P.Request.payload mod 13) in
      match P.read_request (P.input_of_string ~chunk wire) with
      | Ok got -> P.Request.equal req got
      | Error f -> QCheck.Test.fail_reportf "decode failed: %s" (P.error_to_string f.P.error))

let prop_reader_never_raises =
  (* Garbage in, [Error] (or a miraculous parse) out — never an
     exception.  Half the inputs lead with the real magic so the fuzz
     reaches the deeper header fields. *)
  let gen =
    QCheck.Gen.(
      map2
        (fun lead body -> if lead then P.request_magic ^ body else body)
        bool
        (string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 200)))
  in
  QCheck.Test.make ~count:500 ~name:"framing reader is total on garbage"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match P.read_request ~max_payload:4096 (P.input_of_string ~chunk:3 s) with
      | Ok _ | Error _ -> true)

let test_truncation_every_prefix () =
  let wire = P.encode_request (List.nth sample_requests 1) in
  for len = 0 to String.length wire - 1 do
    match P.read_request (P.input_of_string (String.sub wire 0 len)) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes parsed as a full frame" len
    | Error _ -> ()
  done

let test_header_rejects () =
  let base = P.encode_request (List.hd sample_requests) in
  let mutate off c =
    let b = Bytes.of_string base in
    Bytes.set b off c;
    Bytes.to_string b
  in
  let err s =
    match P.read_request ~max_payload:1024 (P.input_of_string s) with
    | Ok _ -> Alcotest.fail "mutated frame accepted"
    | Error f -> f
  in
  (match (err (mutate 0 'X')).P.error with
  | P.Bad_magic -> ()
  | e -> Alcotest.failf "expected Bad_magic, got %s" (P.error_to_string e));
  (match (err (mutate 4 '\x09')).P.error with
  | P.Bad_version 9 -> ()
  | e -> Alcotest.failf "expected Bad_version 9, got %s" (P.error_to_string e));
  (match (err (mutate 6 '\x07')).P.error with
  | P.Bad_op 7 -> ()
  | e -> Alcotest.failf "expected Bad_op 7, got %s" (P.error_to_string e))

let test_too_large_recovers_id () =
  (* A length field past the cap must reject before allocating, and the
     failure still carries the id parsed from the header. *)
  let b = Bytes.of_string (P.encode_request (List.hd sample_requests)) in
  Bytes.set_int64_le b 8 77L;
  Bytes.set_int32_le b 22 0x00FFFFFFl;
  match P.read_request ~max_payload:4096 (P.input_of_string (Bytes.to_string b)) with
  | Ok _ -> Alcotest.fail "oversized frame accepted"
  | Error { error = P.Frame_too_large { limit = 4096; _ }; id = Some 77L } -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (P.error_to_string f.P.error)

let test_config_forward_compat () =
  (* Unknown config keys are ignored; bad values for known keys are not. *)
  let b = Bytes.of_string "ZSRQ" in
  let frame ~config =
    let h = Bytes.create P.header_bytes in
    Bytes.blit b 0 h 0 4;
    Bytes.set_uint16_le h 4 P.version;
    Bytes.set_uint8 h 6 1;
    Bytes.set_uint8 h 7 0;
    Bytes.set_int64_le h 8 5L;
    Bytes.set_int32_le h 16 0l;
    Bytes.set_uint16_le h 20 (String.length config);
    Bytes.set_int32_le h 22 0l;
    Bytes.to_string h ^ config
  in
  (match
     P.read_request (P.input_of_string (frame ~config:"transforms=cfi;future_knob=7;seed=3"))
   with
  | Ok { P.Request.op = P.Rewrite { P.transforms = [ "cfi" ]; seed = 3; _ }; _ } -> ()
  | Ok _ -> Alcotest.fail "known keys mis-parsed"
  | Error f -> Alcotest.failf "unknown key rejected: %s" (P.error_to_string f.P.error));
  match P.read_request (P.input_of_string (frame ~config:"seed=banana")) with
  | Ok _ -> Alcotest.fail "unparseable seed accepted"
  | Error { error = P.Malformed _; _ } -> ()
  | Error f -> Alcotest.failf "expected Malformed, got %s" (P.error_to_string f.P.error)

(* -- admission control -- *)

let test_admission_bound () =
  let a = Admission.create ~bound:2 in
  Alcotest.(check bool) "admit 1" true (Admission.try_admit a);
  Alcotest.(check bool) "admit 2" true (Admission.try_admit a);
  Alcotest.(check bool) "reject at bound" false (Admission.try_admit a);
  Alcotest.(check int) "rejection counted" 1 (Admission.rejected a);
  Admission.started a;
  Alcotest.(check bool) "slot freed by start" true (Admission.try_admit a);
  Alcotest.(check int) "high water capped at bound" 2 (Admission.high_water a);
  Alcotest.(check int) "admitted counted" 3 (Admission.admitted a)

let test_admission_cancel () =
  let a = Admission.create ~bound:1 in
  Alcotest.(check bool) "admit" true (Admission.try_admit a);
  Admission.cancel a;
  Alcotest.(check int) "cancel frees the slot" 0 (Admission.queued a);
  Alcotest.(check int) "cancel retracts the admission" 0 (Admission.admitted a);
  Alcotest.(check bool) "slot reusable" true (Admission.try_admit a)

let test_admission_clamps_bound () =
  let a = Admission.create ~bound:0 in
  Alcotest.(check int) "bound clamped to 1" 1 (Admission.bound a)

(* -- end-to-end: an in-process daemon -- *)

let fresh_sock =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zipr-ts-%d-%d.sock" (Unix.getpid ()) !ctr)

let with_server ?config f =
  let path = fresh_sock () in
  let server =
    Server.create ?config ~resolve_transform:Transforms.Registry.by_name (P.Unix_path path)
  in
  let d = Domain.spawn (fun () -> Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join d;
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () -> f server (Server.address server))

let workload_bytes (spec : Workloads.Synthetic.spec) =
  Bytes.unsafe_to_string (Zelf.Binary.serialize spec.Workloads.Synthetic.binary)

let expect_ok what = function
  | Ok ({ P.Response.status = P.Ok_; _ } as r) -> r
  | Ok r ->
      Alcotest.failf "%s: server answered %s: %s" what
        (P.status_to_string r.P.Response.status)
        r.P.Response.message
  | Error msg -> Alcotest.failf "%s: transport error: %s" what msg

let det_lines stats =
  String.split_on_char '\n' stats
  |> List.filter (fun l -> String.length l >= 4 && String.sub l 0 4 = "det.")

(* The tentpole acceptance test: a served rewrite is byte-identical to
   [Pipeline.rewrite_bytes] for the libc-like and frag-like workloads,
   whether 1 client or 8 ask concurrently — and the det.* summary lines
   are identical for every client. *)
let test_served_byte_identity () =
  let cases =
    [
      ( "libc-like",
        workload_bytes (Workloads.Synthetic.libc_like ~seed:11 ~tests:0 ()),
        [ "cfi" ] );
      ( "frag-like",
        workload_bytes (Workloads.Synthetic.frag_like ~seed:11 ~tests:0 ()),
        [ "null" ] );
    ]
  in
  let offline =
    List.map
      (fun (name, data, tnames) ->
        let transforms = List.filter_map Transforms.Registry.by_name tnames in
        match Zipr.Pipeline.rewrite_bytes ~transforms (Bytes.of_string data) with
        | Ok out -> (name, Bytes.to_string out)
        | Error e -> Alcotest.failf "%s: offline rewrite failed: %s" name e)
      cases
  in
  with_server (fun _server addr ->
      List.iter
        (fun clients ->
          let ask c =
            List.map
              (fun (name, data, tnames) ->
                let r =
                  expect_ok
                    (Printf.sprintf "%s (client %d)" name c)
                    (Client.rewrite ~id:(Int64.of_int c) ~transforms:tnames addr data)
                in
                (name, r))
              cases
          in
          let per_client =
            if clients = 1 then [ ask 0 ]
            else
              List.init clients (fun c -> Domain.spawn (fun () -> ask c))
              |> List.map Domain.join
          in
          List.iter
            (fun responses ->
              List.iter2
                (fun (name, expected) (name', (r : P.Response.t)) ->
                  Alcotest.(check string) "case order" name name';
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: served output byte-identical (%d clients)" name clients)
                    true
                    (String.equal expected r.P.Response.payload))
                offline responses)
            per_client;
          (* Every client saw the same deterministic summary. *)
          match per_client with
          | first :: rest ->
              List.iter
                (fun responses ->
                  List.iter2
                    (fun (_, (a : P.Response.t)) (_, (b : P.Response.t)) ->
                      Alcotest.(check (list string))
                        "det.* lines identical across clients"
                        (det_lines a.P.Response.stats) (det_lines b.P.Response.stats))
                    first responses)
                rest
          | [] -> ())
        [ 1; 8 ])

let test_shared_cache_hits () =
  let data = workload_bytes (Workloads.Synthetic.frag_like ~seed:12 ~tests:0 ()) in
  with_server (fun server addr ->
      let r1 = expect_ok "first" (Client.rewrite ~transforms:[ "null" ] addr data) in
      let r2 = expect_ok "second" (Client.rewrite ~transforms:[ "cfi" ] addr data) in
      let has_line needle stats =
        List.exists (String.equal needle) (String.split_on_char '\n' stats)
      in
      Alcotest.(check bool) "first request misses" true
        (has_line "ir_cache=miss" r1.P.Response.stats);
      Alcotest.(check bool) "second request hits (different transform, same IR)" true
        (has_line "ir_cache=hit" r2.P.Response.stats);
      let s = Server.stats server in
      Alcotest.(check int) "server counted the hit" 1 s.Server.cache_hits;
      Alcotest.(check int) "server counted the miss" 1 s.Server.cache_misses;
      Alcotest.(check bool) "cache resident bytes visible" true
        (s.Server.cache_resident_bytes > 0))

(* A per-request --ir-jobs override against a serial-default daemon:
   the response's det.ir_jobs echoes the override, and the output stays
   byte-identical to the offline pipeline (parallel IR construction
   changes timing, never bytes). *)
let test_ir_jobs_override () =
  let data = workload_bytes (Workloads.Synthetic.libc_like ~seed:13 ~tests:0 ()) in
  let transforms = List.filter_map Transforms.Registry.by_name [ "cfi" ] in
  let offline =
    match Zipr.Pipeline.rewrite_bytes ~transforms (Bytes.of_string data) with
    | Ok out -> Bytes.to_string out
    | Error e -> Alcotest.failf "offline rewrite failed: %s" e
  in
  let has_line needle stats =
    List.exists (String.equal needle) (String.split_on_char '\n' stats)
  in
  with_server (fun _server addr ->
      let par =
        expect_ok "override" (Client.rewrite ~ir_jobs:4 ~transforms:[ "cfi" ] addr data)
      in
      Alcotest.(check bool) "det.ir_jobs echoes the override" true
        (has_line "det.ir_jobs=4" par.P.Response.stats);
      Alcotest.(check bool) "override output byte-identical to offline" true
        (String.equal offline par.P.Response.payload);
      let default =
        expect_ok "server default" (Client.rewrite ~transforms:[ "cfi" ] addr data)
      in
      Alcotest.(check bool) "no override: server default (serial)" true
        (has_line "det.ir_jobs=1" default.P.Response.stats);
      Alcotest.(check bool) "default output byte-identical" true
        (String.equal offline default.P.Response.payload))

(* The disk bound covers the whole --cache directory: a delta daemon's
   snapshot entries and routine fragments share it, so four versions of
   one project leave at most [cache_disk_entries] files behind, and every
   reply still equals the offline rewrite. *)
let test_delta_disk_bound () =
  let dir = Filename.temp_file "zipr_serve_cache" "" in
  Sys.remove dir;
  let config =
    {
      Server.default_config with
      Server.delta = true;
      cache_dir = Some dir;
      cache_disk_entries = Some 2;
    }
  in
  let versions = Workloads.Versioned.generate ~seed:3 ~versions:4 () in
  let transforms = List.filter_map Transforms.Registry.by_name [ "cfi" ] in
  with_server ~config (fun _ addr ->
      List.iter
        (fun (v : Workloads.Versioned.version) ->
          let data = Zelf.Binary.serialize v.Workloads.Versioned.binary in
          let offline =
            match Zipr.Pipeline.rewrite_bytes ~transforms data with
            | Ok out -> Bytes.to_string out
            | Error e ->
                Alcotest.failf "%s: offline failed: %s" v.Workloads.Versioned.name e
          in
          let r =
            expect_ok v.Workloads.Versioned.name
              (Client.rewrite ~transforms:[ "cfi" ] addr (Bytes.to_string data))
          in
          Alcotest.(check bool)
            (v.Workloads.Versioned.name ^ ": served output byte-identical")
            true
            (String.equal offline r.P.Response.payload))
        versions);
  let files = Sys.readdir dir in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 entry files (%d)" (Array.length files))
    true
    (Array.length files <= 2)

let test_ping_echoes () =
  with_server (fun _ addr ->
      let r = expect_ok "ping" (Client.ping ~payload:"\x00abc\xff" addr) in
      Alcotest.(check string) "payload echoed" "\x00abc\xff" r.P.Response.payload)

let test_server_rejects_nonsense () =
  with_server (fun _ addr ->
      (match Client.rewrite ~transforms:[ "no-such-pass" ] addr "x" with
      | Ok { P.Response.status = P.Bad_request; message; _ } ->
          Alcotest.(check bool) "names the unknown transform" true
            (String.length message > 0)
      | Ok r -> Alcotest.failf "expected bad_request, got %s" (P.status_to_string r.P.Response.status)
      | Error e -> Alcotest.failf "transport error: %s" e);
      (match Client.rewrite ~transforms:[ "null" ] addr "this is not a binary" with
      | Ok { P.Response.status = P.Bad_request; _ } -> ()
      | Ok r -> Alcotest.failf "expected bad_request, got %s" (P.status_to_string r.P.Response.status)
      | Error e -> Alcotest.failf "transport error: %s" e);
      (* A raw-garbage frame still gets a well-formed error response. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (P.sockaddr_of_addr addr);
          P.write_all fd (String.make 64 'Z');
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
          match P.read_response (P.input_of_fd fd) with
          | Ok { P.Response.status = P.Bad_request; _ } -> ()
          | Ok r ->
              Alcotest.failf "expected bad_request, got %s"
                (P.status_to_string r.P.Response.status)
          | Error f -> Alcotest.failf "no response to garbage: %s" (P.error_to_string f.P.error)))

let test_server_too_large () =
  let config = { Server.default_config with Server.max_request_bytes = 2048 } in
  with_server ~config (fun _ addr ->
      match
        Client.rewrite ~id:31L ~transforms:[ "null" ] addr (String.make 8192 'b')
      with
      | Ok { P.Response.status = P.Too_large; id = 31L; _ } -> ()
      | Ok r -> Alcotest.failf "expected too_large, got %s" (P.status_to_string r.P.Response.status)
      | Error e -> Alcotest.failf "transport error: %s" e)

let test_deadline_exceeded () =
  let config = { Server.default_config with Server.jobs = 1; queue_bound = 8 } in
  with_server ~config (fun server addr ->
      (* Occupy the only worker, then queue a request whose deadline
         expires long before the worker frees. *)
      let blocker = Domain.spawn (fun () -> Client.ping ~sleep_us:400_000 addr) in
      Unix.sleepf 0.08;
      (match Client.ping ~deadline_us:10_000 addr with
      | Ok { P.Response.status = P.Deadline_exceeded; _ } -> ()
      | Ok r ->
          Alcotest.failf "expected deadline_exceeded, got %s"
            (P.status_to_string r.P.Response.status)
      | Error e -> Alcotest.failf "transport error: %s" e);
      ignore (expect_ok "blocker" (Domain.join blocker));
      Alcotest.(check bool) "deadline counted" true
        ((Server.stats server).Server.deadline_exceeded >= 1))

(* The flood: burst 4x the queue bound at a single-worker server.  Every
   request must get an answer (fast [Overloaded] or a real completion),
   the admission queue must never exceed its bound, and the server must
   keep serving afterwards. *)
let test_flood_sheds_load () =
  let bound = 3 in
  let config = { Server.default_config with Server.jobs = 1; queue_bound = bound } in
  with_server ~config (fun server addr ->
      let blocker = Domain.spawn (fun () -> Client.ping ~sleep_us:500_000 addr) in
      Unix.sleepf 0.08;
      let burst = 4 * bound in
      let clients =
        List.init burst (fun i ->
            Domain.spawn (fun () -> Client.ping ~id:(Int64.of_int i) addr))
      in
      let results = List.map Domain.join clients in
      ignore (expect_ok "blocker" (Domain.join blocker));
      let ok, overloaded =
        List.fold_left
          (fun (ok, ov) -> function
            | Ok { P.Response.status = P.Ok_; _ } -> (ok + 1, ov)
            | Ok { P.Response.status = P.Overloaded; _ } -> (ok, ov + 1)
            | Ok r ->
                Alcotest.failf "unexpected status %s" (P.status_to_string r.P.Response.status)
            | Error e -> Alcotest.failf "a flooded request got no answer: %s" e)
          (0, 0) results
      in
      Alcotest.(check int) "every request answered" burst (ok + overloaded);
      Alcotest.(check bool) "load was shed" true (overloaded >= 1);
      Alcotest.(check bool) "admitted requests completed" true (ok >= 1);
      Alcotest.(check bool) "queue bound held" true
        (Admission.high_water (Server.admission server) <= bound);
      Alcotest.(check bool) "server counted the rejects" true
        ((Server.stats server).Server.overloaded >= 1);
      (* Still alive after the burst. *)
      ignore (expect_ok "post-flood ping" (Client.ping addr)))

let test_clean_shutdown () =
  let path = fresh_sock () in
  let server =
    Server.create ~resolve_transform:Transforms.Registry.by_name (P.Unix_path path)
  in
  let d = Domain.spawn (fun () -> Server.serve server) in
  let addr = Server.address server in
  ignore (expect_ok "pre-shutdown ping" (Client.ping addr));
  Server.stop server;
  Domain.join d;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  match Client.ping addr with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "connect succeeded after shutdown"

let suite =
  [
    Alcotest.test_case "request frames round-trip at every chunking" `Quick
      test_request_roundtrip;
    Alcotest.test_case "response frames round-trip at every chunking" `Quick
      test_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_reader_never_raises;
    Alcotest.test_case "every truncation point reads as an error" `Quick
      test_truncation_every_prefix;
    Alcotest.test_case "header rejects: magic, version, opcode" `Quick test_header_rejects;
    Alcotest.test_case "oversized frame rejected, id recovered" `Quick
      test_too_large_recovers_id;
    Alcotest.test_case "unknown config keys ignored, bad values rejected" `Quick
      test_config_forward_compat;
    Alcotest.test_case "admission enforces its bound" `Quick test_admission_bound;
    Alcotest.test_case "admission cancel frees the slot" `Quick test_admission_cancel;
    Alcotest.test_case "admission clamps a nonsense bound" `Quick test_admission_clamps_bound;
    Alcotest.test_case "served rewrites byte-identical to pipeline (1 and 8 clients)" `Slow
      test_served_byte_identity;
    Alcotest.test_case "concurrent clients share one IR cache" `Quick test_shared_cache_hits;
    Alcotest.test_case "per-request ir-jobs override round-trips" `Quick
      test_ir_jobs_override;
    Alcotest.test_case "delta daemon keeps its cache directory in bounds" `Quick
      test_delta_disk_bound;
    Alcotest.test_case "ping echoes its payload" `Quick test_ping_echoes;
    Alcotest.test_case "bad requests answered, not dropped" `Quick test_server_rejects_nonsense;
    Alcotest.test_case "oversized requests answered with too_large" `Quick test_server_too_large;
    Alcotest.test_case "queued past its deadline: deadline_exceeded" `Quick
      test_deadline_exceeded;
    Alcotest.test_case "flood at 4x queue bound sheds load, stays up" `Slow
      test_flood_sheds_load;
    Alcotest.test_case "shutdown drains, unlinks the socket" `Quick test_clean_shutdown;
  ]
