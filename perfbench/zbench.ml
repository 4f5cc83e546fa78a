(* One command for the repository's benchmark: three workloads, each
   printing its metrics by name and unit after checking every output.

     zbench --workload NAME --seed N --seconds S --trace 0|1 --ziprtool EXE

   With --trace 0 it reports the end-to-end metrics of a timed run; with
   --trace 1 the per-layer metrics of a separate traced run.  The last
   line of standard output is the JSON result.  See README.md. *)

let workloads = [ "scale-cold"; "cgc-cfi-warm"; "versioned-delta" ]

(* Runtime files (daemon sockets and logs, span dumps) live here,
   relative to the checkout root the benchmark runs from. *)
let run_dir = ".zbench-run"

let usage () =
  prerr_endline
    "usage: zbench --workload (scale-cold|cgc-cfi-warm|versioned-delta) --seed N --seconds S \
     --trace 0|1 --ziprtool EXE";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and exe = ref "" in
  let rec args = function
    | "--workload" :: v :: rest -> workload := v; args rest
    | "--seed" :: v :: rest -> seed := int_of_string v; args rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; args rest
    | "--trace" :: v :: rest -> trace := int_of_string v; args rest
    | "--ziprtool" :: v :: rest -> exe := v; args rest
    | [] -> ()
    | _ -> usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload workloads))
    || !exe = "" || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
  then usage ();
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  (* A run stopped from outside still stops and reaps its daemons. *)
  let interrupted _ =
    Daemon.kill_all ();
    exit 130
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and exe = !exe in
  let spans_file = Filename.concat run_dir (Printf.sprintf "spans-%s-%d.tsv" !workload seed) in
  let served spec =
    if trace then Served.traced ~exe ~dir:run_dir ~spans_file spec
    else Served.timed ~exe ~dir:run_dir spec
  in
  match
    match !workload with
    | "scale-cold" ->
        if trace then Scale_cold.traced ~seed ~seconds ~spans_file
        else Scale_cold.timed ~seed ~seconds
    | "cgc-cfi-warm" -> served (Cgc_warm.spec ~seed ~seconds)
    | _ -> served (Versioned_delta.spec ~seed ~seconds)
  with
  | o -> Harness.report ~workload:!workload ~seed ~trace o
  | exception Harness.Broken why ->
      Daemon.kill_all ();
      Harness.report_broken why;
      exit 1
