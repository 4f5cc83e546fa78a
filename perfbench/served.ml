(* The two daemon workloads share one shape: set up a fresh daemon and
   warm it with a fixed request list, then send a fixed timed list over
   one closed-loop connection.  Inputs are identified by [key]; a key
   may be requested many times, and every reply for it must carry the
   bytes of its first. *)

type request = { key : int; name : string; raw : string; transforms : string list }

type spec = {
  delta : bool;  (** run the daemon with [--delta] *)
  warm : request list;
  timed : request list;
  check : request -> string -> (Checks.overheads, string) result option;
      (** output checks of one distinct input's payload; [None] when the
          input is outside the checked sample *)
  stand_in : (request -> (Checks.overheads, string) result) option;
      (** where the served outputs cannot run, the source of the
          run-time overheads instead, applied to each checked input *)
  setups : int;
      (** set-ups per run; the median is reported *)
  phases : int;
      (** timed phases per run, pooled; every [setups / phases]-th
          set-up's daemon serves the timed list, so each phase runs on
          a fresh daemon *)
}

let is_ok (r : Daemon.reply) = r.Daemon.status = Serve.Protocol.Ok_

(* Send [reqs] in order.  Only the first payload of each key is kept (in
   [first]); each reply is returned without its payload, with whether
   it matched, so the load generator's heap — and its collector's work
   inside later latency windows — stays small. *)
let send ?frames d first reqs =
  List.map
    (fun q ->
      let r = Daemon.rewrite ?frames d ~transforms:q.transforms q.raw in
      let same =
        (not (is_ok r))
        ||
        match Hashtbl.find_opt first q.key with
        | Some p -> String.equal p r.Daemon.payload
        | None ->
            Hashtbl.replace first q.key r.Daemon.payload;
            true
      in
      (q, { r with Daemon.payload = "" }, same))
    reqs

let ok_count replies = List.length (List.filter (fun (_, r, _) -> is_ok r) replies)

(* Spawn, wait for the first ping and send the warm-up list; a warm-up
   reply that differs from another daemon's for the same input makes the
   run's numbers incomparable. *)
let set_up ~exe ~dir spec first =
  let d = Daemon.spawn ~exe ~dir ~delta:spec.delta in
  let warm = send d first spec.warm in
  List.iter
    (fun (q, _, same) ->
      if not same then Harness.broken "two daemons answered %s with different bytes" q.name)
    warm;
  (d, 1 + ok_count warm)

let timed ~exe ~dir spec =
  let first = Hashtbl.create 64 in
  let setup_times = ref [] and phase_runs = ref [] in
  for k = 1 to spec.setups do
    let t0 = Harness.now () in
    let d, warm_ok = set_up ~exe ~dir spec first in
    setup_times := (Harness.now () -. t0) :: !setup_times;
    if k mod (spec.setups / spec.phases) <> 0 then Daemon.stop d ~client_ok:warm_ok
    else begin
      let t0 = Harness.now () in
      let replies = send d first spec.timed in
      let wall = Harness.now () -. t0 in
      let peak_kb = Daemon.peak_rss_kb d in
      Daemon.stop d ~client_ok:(warm_ok + ok_count replies);
      phase_runs := (replies, wall, peak_kb) :: !phase_runs
    end
  done;
  let verdicts = Hashtbl.create 64 in
  let verdict q =
    match Hashtbl.find_opt verdicts q.key with
    | Some v -> v
    | None ->
        let v = spec.check q (Hashtbl.find first q.key) in
        Hashtbl.replace verdicts q.key v;
        v
  in
  let failures replies =
    List.filter_map
      (fun (q, (r : Daemon.reply), same) ->
        if not (is_ok r) then
          Some (q.name, Serve.Protocol.status_to_string r.Daemon.status ^ ": " ^ r.Daemon.message)
        else if not same then
          Some (q.name, "payload differs from an earlier reply for the same input")
        else
          match verdict q with
          | Some (Error why) -> Some (q.name, why)
          | Some (Ok _) | None -> None)
      replies
  in
  let measured =
    List.map
      (fun (replies, wall, peak_kb) ->
        let failed = failures replies in
        ( failed,
          {
            Harness.passed = List.length replies - List.length failed;
            wall;
            latencies = List.map (fun (_, (r : Daemon.reply), _) -> r.Daemon.latency_ms) replies;
            peak_kb;
          } ))
      (List.rev !phase_runs)
  in
  (* In key order, so the means are summed in the same order (and so
     read the same to the last digit) whatever the seed's request order. *)
  let distinct =
    let seen = Hashtbl.create 64 in
    List.iter (fun q -> Hashtbl.replace seen q.key q) spec.timed;
    List.sort (fun a b -> compare a.key b.key) (List.of_seq (Hashtbl.to_seq_values seen))
  in
  let sizes =
    List.filter_map
      (fun q ->
        Option.map
          (fun p -> Harness.overhead_pct ~base:(String.length q.raw) ~measured:(String.length p))
          (Hashtbl.find_opt first q.key))
      distinct
  in
  let runs =
    List.filter_map
      (fun q ->
        match (Hashtbl.find_opt verdicts q.key, spec.stand_in) with
        | Some (Some (Ok ov)), None -> Some ov
        | Some (Some _), Some stand_in -> (
            match stand_in q with
            | Ok ov -> Some ov
            | Error why ->
                Printf.printf "stand-in: %s: %s\n" q.name why;
                None)
        | _ -> None)
      distinct
  in
  let attempted = spec.phases * List.length spec.timed in
  {
    Harness.attempted;
    failures = List.concat_map fst measured;
    metrics =
      Harness.end_to_end ~setups:(List.rev !setup_times) ~attempted ~phases:(List.map snd measured)
        ~overheads:(Checks.mean_overheads ~sizes runs);
  }

(* The daemon's replies, reproduced in-process through two sets of caches
   built to the daemon's capacities: each request runs untraced with
   [Pipeline.rewrite_bytes] on one set, then decomposed under spans on
   the other, so both see the same cache and heap state and their time
   difference is the tracing overhead.  Both must equal the daemon's
   payloads. *)
let traced ~exe ~dir ~spans_file spec =
  let first = Hashtbl.create 64 in
  let d, warm_ok = set_up ~exe ~dir spec first in
  let replies = send ~frames:true d first spec.timed in
  Daemon.stop d ~client_ok:(warm_ok + ok_count replies);
  List.iter
    (fun (q, _, same) ->
      if not same then Harness.broken "the daemon answered %s with different bytes" q.name)
    replies;
  let transforms q =
    List.map
      (fun n ->
        match Transforms.Registry.by_name n with
        | Some t -> t
        | None -> Harness.broken "unknown transform %s" n)
      q.transforms
  in
  let agree what q out =
    match (out, Hashtbl.find_opt first q.key) with
    | Ok b, Some p when Bytes.to_string b = p -> ()
    | Error _, None -> ()
    | _ -> Harness.broken "%s of %s differs from the daemon's reply" what q.name
  in
  let plain = Layers.daemon_caches ~delta:spec.delta in
  let caches = Layers.daemon_caches ~delta:spec.delta in
  (* One request both ways; returns the untraced time. *)
  let replay layers i q =
    let raw = Bytes.of_string q.raw and transforms = transforms q in
    let t0 = Harness.now () in
    let out =
      Zipr.Pipeline.rewrite_bytes ?ir_cache:plain.Layers.ir_cache
        ?routine_cache:plain.Layers.routine_cache ~transforms raw
    in
    let dt = Harness.now () -. t0 in
    agree "the untraced replay" q out;
    agree "the decomposed replay" q (Layers.rewrite layers ~req:i caches ~transforms raw);
    dt
  in
  let warm_layers = Layers.create () in
  List.iteri (fun i q -> ignore (replay warm_layers i q)) spec.warm;
  let layers = Layers.create () in
  let untraced = Harness.mean (List.mapi (replay layers) spec.timed) in
  Spans.write layers.Layers.spans spans_file;
  {
    Harness.attempted = List.length spec.timed;
    failures =
      List.filter_map
        (fun (q, (r : Daemon.reply), _) ->
          if is_ok r then None else Some (q.name, r.Daemon.message))
        replies;
    metrics =
      Layers.metrics layers ~untraced_ms:(1e3 *. untraced)
        ~routine_cache:caches.Layers.routine_cache
      @ Daemon.serve_metrics (List.map (fun (_, r, _) -> r) replies);
  }
