(* Shared measurement plumbing: clocks, order statistics, allocation
   and resident-set readings, and the one-line JSON result. *)

let now = Unix.gettimeofday

(* Nearest-rank percentile: always one of the measured samples. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = percentile xs 50.0

(* The mean of nothing is undefined, never 0 (printed as null). *)
let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let overhead_pct ~base ~measured =
  100.0 *. ((float_of_int measured /. float_of_int base) -. 1.0)

(* Words this domain allocated so far: minor + major - promoted.
   Promoted words are in both totals, so subtracting them once counts
   every allocation exactly once — including the direct major
   allocations of large buffers, which read zero minor words.
   [Gc.minor_words] includes the live minor heap ([Gc.counters]' minor
   total only moves at collections), so the sum does not depend on when
   collections ran and repeats exactly. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* VmHWM (peak resident set) of a process, in KiB, from /proc. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM line in " ^ path)
      in
      scan ())

let mib_of_kb kb = float_of_int kb /. 1024.0

(* A consistency failure: the benchmark cannot vouch for its numbers
   (the daemon and the offline pipeline disagree, a decomposed run
   diverges from [rewrite_bytes], the daemon exits uncleanly).  Any of
   these makes the run's [correct] false. *)
exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failures : (string * string) list;  (** request name, reason *)
  metrics : metric list;
}

(* Everything before the last line is for people; the last line is the
   machine-read result. *)
let report ~workload ~seed ~trace o =
  Printf.printf
    "context: workload=%s seed=%d trace=%d requests=%d nproc=%d ocaml=%s benchmark_rss_mb=%.1f\n"
    workload seed (if trace then 1 else 0) o.attempted
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (mib_of_kb (vm_hwm_kb "self"));
  (* One line per distinct (input, reason), in first-seen order. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace seen f (1 + Option.value (Hashtbl.find_opt seen f) ~default:0))
    o.failures;
  List.iter
    (fun ((name, why) as f) ->
      match Hashtbl.find_opt seen f with
      | Some n ->
          Hashtbl.remove seen f;
          Printf.printf "failed: %s (%d request%s): %s\n" name n (if n = 1 then "" else "s") why
      | None -> ())
    o.failures;
  List.iter (fun m -> Printf.printf "  %-34s %14.4f %s\n" m.name m.value m.unit_) o.metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.attempted (List.length o.failures)
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
          o.metrics))

let report_broken why =
  Printf.printf "broken: %s\n" why;
  print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|}

(* One timed pass over a workload's request list: its requests whose
   output passed every check, its wall time, one client-side time per
   attempted request, and the peak RSS of the process that rewrote. *)
type phase = { passed : int; wall : float; latencies : float list; peak_kb : int }

(* The end-to-end metrics every workload reports.  The timed phases are
   pooled: the rate is every phase's passing requests over their summed
   wall time, and the percentiles are taken over every phase's samples.
   A tail made of one input's repeats (CB_47 in cgc-cfi-warm) is then a
   quantile of all its requests in the run, not of one phase's few.
   Peak RSS is the median over the phases. *)
let end_to_end ~setups ~attempted ~phases ~overheads =
  List.iteri
    (fun i p ->
      Printf.printf "phase %d: %d samples, %.3f s, p50 %.3f ms, p99 %.3f ms\n" (i + 1)
        (List.length p.latencies) p.wall (percentile p.latencies 50.0)
        (percentile p.latencies 99.0))
    phases;
  let latencies = List.concat_map (fun p -> p.latencies) phases in
  let n = List.length latencies in
  Printf.printf "pooled: %d samples, %d beyond p99\n" n
    (n - int_of_float (ceil (0.99 *. float_of_int n)));
  Printf.printf "setups (s):%s\n" (String.concat "" (List.map (Printf.sprintf " %.3f") setups));
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 phases in
  let passed = List.fold_left (fun a p -> a + p.passed) 0 phases in
  [
    metric "setup_s" "s" (median setups);
    metric "rewrites_per_s" "1/s" (float_of_int passed /. sum (fun p -> p.wall));
    metric "latency_p50_ms" "ms" (percentile latencies 50.0);
    metric "latency_p99_ms" "ms" (percentile latencies 99.0);
    metric "success_pct" "%" (100.0 *. ratio passed attempted);
  ]
  @ overheads
  @ [ metric "peak_rss_mb" "MiB" (median (List.map (fun p -> mib_of_kb p.peak_kb) phases)) ]
