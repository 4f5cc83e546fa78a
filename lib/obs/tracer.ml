(* The span sink: completed spans plus an aggregate counter registry.

   Spans are recorded on completion under a single mutex; the clock is
   [Unix.gettimeofday] hardened into a monotonic one by a CAS-max clamp
   ([now] never goes backwards), so every recorded span satisfies

     ts >= 0, dur >= 0, and child [ts, ts+dur] within its parent's

   — the invariants the Chrome exporter and the CI schema check rely on.

   Timestamps are integer microseconds relative to sink creation; the
   [path] is the slash-joined nesting chain maintained by [Obs.span]
   (e.g. "rewrite/reassemble/drain"), which gives the aggregated report
   stable keys and lets a consumer compare child-span sums against their
   parent without reconstructing nesting from timestamps. *)

type event = {
  path : string;  (* slash-joined nesting chain; the aggregation key *)
  name : string;  (* leaf name, shown by Chrome *)
  tid : int;  (* domain id: one lane per worker in chrome://tracing *)
  ts_us : int;
  dur_us : int;
  args : (string * string) list;
}

type t = {
  lock : Mutex.t;
  last_us : int Atomic.t;  (* monotonic clamp over gettimeofday *)
  origin_us : int;
  mutable events : event list;  (* completion order, newest first *)
  counters : Counters.t;
}

let wall_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let create () =
  let o = wall_us () in
  {
    lock = Mutex.create ();
    last_us = Atomic.make o;
    origin_us = o;
    events = [];
    counters = Counters.create ();
  }

(* Monotonic read: a backwards wall-clock step (NTP slew, VM migration)
   reads as "no time passed", never as negative time. *)
let now t =
  let rec go () =
    let cur = Atomic.get t.last_us in
    let w = wall_us () in
    if w <= cur then cur
    else if Atomic.compare_and_set t.last_us cur w then w
    else go ()
  in
  go () - t.origin_us

let record t ev =
  Mutex.lock t.lock;
  t.events <- ev :: t.events;
  Mutex.unlock t.lock

(* Completion order (a child always precedes its parent). *)
let events t =
  Mutex.lock t.lock;
  let es = t.events in
  Mutex.unlock t.lock;
  List.rev es

let counters t = t.counters

(* -- aggregation -- *)

type row = { row_path : string; count : int; total_us : int; min_us : int; max_us : int }

let aggregate t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let cur =
        match Hashtbl.find_opt tbl e.path with
        | Some r -> r
        | None -> { row_path = e.path; count = 0; total_us = 0; min_us = max_int; max_us = 0 }
      in
      Hashtbl.replace tbl e.path
        {
          cur with
          count = cur.count + 1;
          total_us = cur.total_us + e.dur_us;
          min_us = min cur.min_us e.dur_us;
          max_us = max cur.max_us e.dur_us;
        })
    (events t);
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare a.row_path b.row_path)

(* The schedule-independent projection: span paths with their counts and
   the Sum counters.  Durations, domain ids and Max gauges (queue depth)
   depend on timing and worker layout and are deliberately excluded, so
   two corpus runs over the same inputs produce the same summary at any
   [--jobs]. *)
let deterministic_summary t =
  let b = Buffer.create 256 in
  List.iter
    (fun r -> Buffer.add_string b (Printf.sprintf "span %s %d\n" r.row_path r.count))
    (aggregate t);
  List.iter
    (fun (n, kind, v) ->
      if kind = Counters.Sum then Buffer.add_string b (Printf.sprintf "counter %s %d\n" n v))
    (Counters.snapshot t.counters);
  Buffer.contents b

(* -- exporters -- *)

module Json = Zipr_util.Json

(* Chrome trace_event format: one complete ("ph":"X") event per span,
   loadable by chrome://tracing and Perfetto.  The nesting path rides in
   [args.path]; counters are mirrored in a top-level "counters" object
   (viewers ignore unknown keys, jq does not have to).  Events are sorted
   by (tid, ts, -dur, path) so the output is stable for a given run. *)
let chrome_json t =
  let es =
    List.sort
      (fun a b -> compare (a.tid, a.ts_us, -a.dur_us, a.path) (b.tid, b.ts_us, -b.dur_us, b.path))
      (events t)
  in
  let event e =
    let args = List.map (fun (k, v) -> (k, Json.String v)) e.args in
    Json.Obj
      [
        ("name", String e.name);
        ("cat", String "zipr");
        ("ph", String "X");
        ("pid", Int 1);
        ("tid", Int e.tid);
        ("ts", Int e.ts_us);
        ("dur", Int e.dur_us);
        ("args", Obj (("path", String e.path) :: args));
      ]
  in
  let counters = List.map (fun (n, _, v) -> (n, Json.Int v)) (Counters.snapshot t.counters) in
  Json.to_string
    (Obj
       [
         ("displayTimeUnit", String "ms");
         ("traceEvents", List (List.map event es));
         ("counters", Obj counters);
       ])

(* Flat aggregated report: per-path totals plus the full counter
   registry, as JSON (for CI/jq) or a text table (for humans). *)
let report_json t =
  let row r =
    Json.Obj
      [
        ("path", String r.row_path);
        ("count", Int r.count);
        ("total_us", Int r.total_us);
        ("min_us", Int r.min_us);
        ("max_us", Int r.max_us);
      ]
  in
  let counter (n, kind, v) =
    Json.Obj
      [ ("name", String n); ("kind", String (Counters.kind_to_string kind)); ("value", Int v) ]
  in
  Json.to_string
    (Obj
       [
         ("spans", List (List.map row (aggregate t)));
         ("counters", List (List.map counter (Counters.snapshot t.counters)));
       ])

let render t =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "%-52s %7s %12s %10s %10s\n" "span" "count" "total(ms)" "min(ms)" "max(ms)");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%-52s %7d %12.3f %10.3f %10.3f\n" r.row_path r.count
           (float_of_int r.total_us /. 1e3)
           (float_of_int r.min_us /. 1e3)
           (float_of_int r.max_us /. 1e3)))
    (aggregate t);
  let counters = Counters.snapshot t.counters in
  if counters <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-52s %7s\n" "counter" "value");
    List.iter
      (fun (n, kind, v) ->
        Buffer.add_string b
          (Printf.sprintf "%-52s %7d%s\n" n v
             (match kind with Counters.Max -> "  (high-water)" | Counters.Sum -> "")))
      counters
  end;
  Buffer.contents b
