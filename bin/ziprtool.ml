(* ziprtool: the command-line face of the rewriter.

     ziprtool asm prog.zasm prog.zbf        assemble a textual program
     ziprtool gen --seed 3 cb.zbf           generate a challenge binary
     ziprtool rewrite cb.zbf out.zbf -t cfi rewrite with transforms
     ziprtool run out.zbf --input 012q      execute and report metrics
     ziprtool disasm cb.zbf                 aggregate disassembly + pins  *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc data)

(* create the directory and any missing parents *)
let rec ensure_dir d =
  if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* -- tracing --

   Install a global sink for the duration of [f], then export.  The sink
   is torn down in a [finally] so a failing rewrite still leaves a trace
   behind — usually the run you most want to look at. *)

let with_trace_file path f =
  match path with
  | None -> f ()
  | Some file ->
      let sink = Obs.Tracer.create () in
      Obs.install sink;
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          write_file file (Bytes.of_string (Obs.Tracer.chrome_json sink));
          Printf.eprintf "trace: wrote %s (load in chrome://tracing or Perfetto)\n" file)
        f

let with_trace_dir dir f =
  match dir with
  | None -> f ()
  | Some d ->
      let sink = Obs.Tracer.create () in
      Obs.install sink;
      Fun.protect
        ~finally:(fun () ->
          Obs.disable ();
          ensure_dir d;
          let trace = Filename.concat d "trace.json" in
          let report = Filename.concat d "report.json" in
          write_file trace (Bytes.of_string (Obs.Tracer.chrome_json sink));
          write_file report (Bytes.of_string (Obs.Tracer.report_json sink));
          Printf.eprintf "trace: wrote %s and %s\n" trace report)
        f

let load_binary path =
  match Zelf.Binary.parse (Bytes.of_string (read_file path)) with
  | Ok b -> Ok b
  | Error e -> Error (Format.asprintf "%s: %a" path Zelf.Binary.pp_parse_error e)

let transform_of_name = Transforms.Registry.by_name

(* -- common args -- *)

let input_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT")

let output_file ~pos:p = Arg.(required & pos p (some string) None & info [] ~docv:"OUTPUT")

(* -- rewrite knobs --

   One term builds the {!Zipr.Options.t} for rewrite, batch and client;
   serve takes [daemon_knobs], the part a daemon holds as defaults for
   requests that leave a knob unset.  Unset optional flags stay unset in
   the record, so a client encodes only what its user typed.  Placement
   names are checked by [Zipr.Options.resolve], not a cmdliner enum, so
   the message lists the live strategy set on every surface. *)

let infer_arg =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "infer" ]
              ~doc:
                "Run the inference-based third disassembly source: a fact-propagation \
                 fixpoint over the superset decode that resolves computed jump targets \
                 by constant folding and proves dead bytes unreachable, shrinking the \
                 pinned ambiguous ranges. Refinement-only: bytes the primary \
                 disassemblers agree on are never overturned. Off by default \
                 (byte-identical output to previous releases); a client that gives \
                 neither flag gets the daemon's default." );
          ( Some false,
            info [ "no-infer" ] ~doc:"Disable the inference refiner explicitly." );
        ])

let daemon_knobs =
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "placement-budget" ] ~docv:"N"
          ~doc:
            "Candidates the search strategy evaluates per decision (enumeration \
             width / annealing proposals). Only meaningful with --placement search.")
  in
  let epsilon =
    Arg.(
      value
      & opt (some float) None
      & info [ "placement-epsilon" ] ~docv:"P"
          ~doc:
            "Probability in [0,1] that the search strategy diversifies uniformly \
             over its beam instead of taking the cheapest candidate — the \
             layout-diversity vs. overhead dial. Only meaningful with --placement \
             search.")
  in
  let weights =
    Arg.(
      value
      & opt string ""
      & info [ "placement-weights" ] ~docv:"SPEC"
          ~doc:
            "Cost-model weights for the search strategy as comma-separated \
             key=value pairs, e.g. sled=1,chain=16,relax=3,overflow=1,page=64. \
             Omitted keys keep their defaults.")
  in
  let make placement_budget placement_epsilon placement_weights infer =
    { Zipr.Options.default with placement_budget; placement_epsilon; placement_weights; infer }
  in
  Term.(const make $ budget $ epsilon $ weights $ infer_arg)

let knobs =
  let transforms =
    Arg.(
      value
      & opt (list string) [ "null" ]
      & info [ "t"; "transform" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf "Comma-separated transforms, applied in order. Available: %s."
               (String.concat ", " Transforms.Registry.names)))
  in
  let placement =
    Arg.(
      value
      & opt string "optimized"
      & info [ "placement" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Dollop placement strategy: %s."
               (String.concat ", " Zipr.Placement.names)))
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Layout seed (random placement). $(b,batch) derives each binary's seed from \
             (seed, index), so its outputs do not depend on $(b,--jobs).")
  in
  let make transforms placement seed o =
    { o with Zipr.Options.transforms; placement; seed }
  in
  Term.(const make $ transforms $ placement $ seed $ daemon_knobs)

(* [Error] already carries a printable message. *)
let resolve_knobs = Zipr.Options.resolve ~resolve_transform:transform_of_name

(* -- asm -- *)

let asm_cmd =
  let run src out =
    match Zasm.Parser.assemble_string (read_file src) with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok (binary, symbols) ->
        write_file out (Zelf.Binary.serialize binary);
        Printf.printf "%s: %d bytes, %d symbols\n" out (Zelf.Binary.file_size binary)
          (List.length symbols);
        0
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a textual ZVM program into a ZBF binary.")
    Term.(const run $ input_file $ output_file ~pos:1)

(* -- gen -- *)

let gen_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.") in
  let kind =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("pathological", `Pathological); ("libc", `Libc); ("jvm", `Jvm); ("apache", `Apache) ]) `Default
      & info [ "profile" ] ~doc:"Profile: default, pathological, libc, jvm or apache.")
  in
  let run seed kind out =
    let binary =
      match kind with
      | `Default -> fst (Cgc.Cb_gen.generate ~seed Cgc.Cb_gen.default_profile)
      | `Pathological ->
          fst (Cgc.Cb_gen.generate ~seed (Cgc.Corpus.profile_for 47 ~master_seed:seed))
      | `Libc -> (Workloads.Synthetic.libc_like ~seed ()).Workloads.Synthetic.binary
      | `Jvm -> (Workloads.Synthetic.jvm_like ~seed ()).Workloads.Synthetic.binary
      | `Apache -> (Workloads.Synthetic.apache_like ~seed ()).Workloads.Synthetic.binary
    in
    write_file out (Zelf.Binary.serialize binary);
    Printf.printf "%s: %d bytes (text %d)\n" out (Zelf.Binary.file_size binary)
      (Zelf.Binary.text binary).Zelf.Section.size;
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a deterministic challenge binary or workload.")
    Term.(const run $ seed $ kind $ output_file ~pos:0)

(* -- rewrite -- *)

let rewrite_cmd =
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print reassembly statistics.") in
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Run the structural post-rewrite verifier.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-phase spans and counters; write a Chrome trace_event JSON file \
             loadable in chrome://tracing. The rewritten output is byte-identical with \
             or without tracing.")
  in
  let run knobs stats verify trace inp out =
    with_trace_file trace @@ fun () ->
    match (resolve_knobs knobs, load_binary inp) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok (config, transforms), Ok binary -> (
        match Zipr.Pipeline.rewrite ~config ~transforms binary with
        | r ->
            write_file out (Zelf.Binary.serialize r.Zipr.Pipeline.rewritten);
            let osize = Zelf.Binary.file_size binary in
            let nsize = Zelf.Binary.file_size r.Zipr.Pipeline.rewritten in
            Printf.printf "%s: %d -> %d bytes (%+.1f%%)\n" out osize nsize
              (float_of_int (nsize - osize) /. float_of_int osize *. 100.0);
            if stats then begin
              Format.printf "%a@." Zipr.Reassemble.pp_stats r.Zipr.Pipeline.stats;
              (* Aggregator per-case byte accounting (one line per
                 canonical tally field). *)
              List.iter
                (fun (k, v) -> Printf.printf "agg.%s: %d\n" k v)
                (Disasm.Aggregate.tally_fields
                   r.Zipr.Pipeline.ir.Zipr.Ir_construction.aggregate.Disasm.Aggregate.tally)
            end;
            List.iter
              (fun w -> Printf.printf "warning: %s\n" w)
              r.Zipr.Pipeline.ir.Zipr.Ir_construction.warnings;
            if verify then begin
              let report =
                Zipr.Verify.structural ~orig:binary ~ir:r.Zipr.Pipeline.ir
                  ~rewritten:r.Zipr.Pipeline.rewritten
              in
              Format.printf "%a@." Zipr.Verify.pp_report report;
              if Zipr.Verify.ok report then 0 else 1
            end
            else 0
        | exception Zipr.Reassemble.Failure_ msg ->
            Printf.eprintf "reassembly failed: %s\n" msg;
            1)
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Rewrite a binary through the Zipr pipeline.")
    Term.(const run $ knobs $ stats $ verify $ trace $ input_file $ output_file ~pos:1)

(* -- run -- *)

let run_cmd =
  let input = Arg.(value & opt string "" & info [ "input" ] ~doc:"Bytes fed to receive().") in
  let input_from =
    Arg.(value & opt (some file) None & info [ "input-file" ] ~doc:"Read input bytes from a file.")
  in
  let fuel = Arg.(value & opt int 20_000_000 & info [ "fuel" ] ~doc:"Instruction budget.") in
  let run input input_from fuel path =
    match load_binary path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok binary ->
        let input = match input_from with Some f -> read_file f | None -> input in
        let result = Zelf.Image.boot ~fuel binary ~input in
        print_string result.Zvm.Vm.output;
        Printf.printf "\n-- %s | %d instructions | %d cycles | %d pages resident\n"
          (Zvm.Vm.stop_to_string result.Zvm.Vm.stop)
          result.Zvm.Vm.insns result.Zvm.Vm.cycles result.Zvm.Vm.max_rss_pages;
        (match result.Zvm.Vm.stop with Zvm.Vm.Exited 0 | Zvm.Vm.Halted -> 0 | _ -> 2)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a ZBF binary in the ZVM and report metrics.")
    Term.(const run $ input $ input_from $ fuel $ input_file)

(* -- disasm -- *)

let disasm_cmd =
  let as_asm =
    Arg.(value & flag & info [ "asm" ] ~doc:"Emit a reparseable assembly listing instead.")
  in
  let run as_asm path =
    match load_binary path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok binary when as_asm ->
        print_string (Zasm.Printer.program_listing binary);
        0
    | Ok binary ->
        let ir = Zipr.Ir_construction.build binary in
        let agg = ir.Zipr.Ir_construction.aggregate in
        let text = Zelf.Binary.text binary in
        let pins = ir.Zipr.Ir_construction.pins in
        let addr = ref text.Zelf.Section.vaddr in
        let vend = Zelf.Section.vend text in
        while !addr < vend do
          let verdict = Disasm.Aggregate.verdict_at agg !addr in
          (match verdict with
          | Some Disasm.Aggregate.Data ->
              (* advance over the data run *)
              let start = !addr in
              while
                !addr < vend && Disasm.Aggregate.verdict_at agg !addr = Some Disasm.Aggregate.Data
              do
                incr addr
              done;
              Printf.printf "%08x  <data: %d bytes>\n" start (!addr - start)
          | _ -> (
              match Hashtbl.find_opt agg.Disasm.Aggregate.insn_at !addr with
              | Some (insn, len) ->
                  Printf.printf "%08x  %-28s%s%s\n" !addr (Zvm.Insn.to_string insn)
                    (if Analysis.Ibt.is_pinned pins !addr then "  [pinned]" else "")
                    (match verdict with
                    | Some Disasm.Aggregate.Ambiguous -> "  [ambiguous]"
                    | _ -> "");
                  addr := !addr + len
              | None -> incr addr))
        done;
        Printf.printf "\n%d pinned addresses, %d fixed ranges, %d warnings\n"
          (Analysis.Ibt.count pins)
          (List.length ir.Zipr.Ir_construction.fixed_ranges)
          (List.length ir.Zipr.Ir_construction.warnings);
        0
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble with code/data verdicts and pinned addresses.")
    Term.(const run $ as_asm $ input_file)

(* -- ir -- *)

let ir_cmd =
  let run path =
    match load_binary path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok binary ->
        let ir = Zipr.Ir_construction.build binary in
        print_string (Irdb.Dump.to_string ir.Zipr.Ir_construction.db);
        0
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Dump the intermediate representation of a binary.")
    Term.(const run $ input_file)

(* -- audit -- *)

let audit_cmd =
  let inputs =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"BYTES" ~doc:"An input to drive the binary with (repeatable).")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "gen-seed" ] ~doc:"Treat the binary as a generated CB with this seed and derive pollers.")
  in
  let run inputs seed path =
    match load_binary path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok binary ->
        let inputs =
          match seed with
          | Some s ->
              let _, meta = Cgc.Cb_gen.generate ~seed:s Cgc.Cb_gen.default_profile in
              List.map
                (fun p -> p.Cgc.Poller.input)
                (Cgc.Poller.generate meta ~seed:(s * 17) ~count:16)
          | None -> if inputs = [] then [ "" ] else inputs
        in
        let agg = Disasm.Aggregate.run binary in
        let pins = Analysis.Ibt.compute binary agg in
        let report = Analysis.Pin_audit.audit binary pins ~inputs in
        Format.printf "%a@." Analysis.Pin_audit.pp report;
        if Analysis.Pin_audit.ok report then 0 else 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Check B \xe2\x8a\x86 P dynamically: run the binary and verify every observed indirect target is pinned.")
    Term.(const run $ inputs $ seed $ input_file)

(* -- fuzz -- *)

let fuzz_cmd =
  let cases =
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Master seed.") in
  let max_steps =
    Arg.(
      value
      & opt int 2_000_000
      & info [ "max-steps" ] ~docv:"K"
          ~doc:"Instruction budget per execution of the original binary.")
  in
  let structural =
    Arg.(
      value & flag
      & info [ "structural" ] ~doc:"Also run the structural verifier on every rewrite.")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-skip-pin" ]
          ~doc:
            "Harness self-test: deliberately skip one pin per rewrite; the fuzzer must \
             report failures.")
  in
  let repro_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write each minimized reproducer as a zasm file into this directory.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.") in
  let fuzz_jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for case execution. The summary, reproducers and failure \
             ordering are identical for every value.")
  in
  let run cases seed max_steps structural inject repro_dir quiet jobs infer =
    let opts =
      {
        Fuzz.Driver.default_options with
        Fuzz.Driver.cases = max 0 cases;
        seed;
        max_steps;
        structural;
        fault = (if inject then Some Fuzz.Driver.Skip_pin else None);
        jobs = max 1 jobs;
        infer = Option.value infer ~default:Fuzz.Driver.default_options.Fuzz.Driver.infer;
      }
    in
    let log = if quiet then fun _ -> () else fun msg -> Printf.eprintf "%s\n%!" msg in
    let summary = Fuzz.Driver.run ~log opts in
    print_string (Fuzz.Driver.render_summary summary);
    (match repro_dir with
    | Some dir when summary.Fuzz.Driver.failures <> [] ->
        ensure_dir dir;
        List.iter
          (fun (f : Fuzz.Driver.failure) ->
            let path = Filename.concat dir (Printf.sprintf "case-%d.zasm" f.Fuzz.Driver.case) in
            let oc = open_out_bin path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc f.Fuzz.Driver.repro_zasm);
            Printf.printf "reproducer: %s\n" path)
          summary.Fuzz.Driver.failures
    | _ -> ());
    if summary.Fuzz.Driver.failures = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-execution fuzzing: generate programs, rewrite under random \
          configurations, and demand semantic equivalence.")
    Term.(
      const run $ cases $ seed $ max_steps $ structural $ inject $ repro_dir $ quiet
      $ fuzz_jobs $ infer_arg)

(* -- batch -- *)

let batch_cmd =
  let indir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"INDIR") in
  let outdir = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTDIR") in
  let batch_jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains (0 = auto-detect the core count).")
  in
  let ext =
    Arg.(
      value
      & opt (some string) None
      & info [ "ext" ] ~docv:"EXT" ~doc:"Only process files with this extension (e.g. .zbf).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed IR cache directory (created if missing). A re-run over the \
             same inputs restores each binary's IR from the cache instead of rebuilding \
             it; outputs are byte-identical either way.")
  in
  let cache_disk_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-entries" ] ~docv:"N"
          ~doc:
            "Bound the $(b,--cache) directory to N entry files; after each store the \
             oldest entries are pruned. Unbounded by default.")
  in
  let cache_disk_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-bytes" ] ~docv:"BYTES"
          ~doc:
            "Bound the $(b,--cache) directory's total size; after each store the oldest \
             entries are pruned until it fits. Unbounded by default.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"DIR"
          ~doc:
            "Record spans and counters for the whole batch; write DIR/trace.json (Chrome \
             trace_event) and DIR/report.json (aggregated per-phase totals). Outputs are \
             byte-identical with or without tracing, at any $(b,--jobs).")
  in
  let run knobs jobs ext cache_dir disk_entries disk_bytes trace indir outdir =
    with_trace_dir trace @@ fun () ->
    match resolve_knobs knobs with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok (config, transforms) ->
      let files =
        Sys.readdir indir |> Array.to_list
        |> List.filter (fun f ->
               (not (Sys.is_directory (Filename.concat indir f)))
               && match ext with Some e -> Filename.check_suffix f e | None -> true)
        |> List.sort compare
      in
      if files = [] then begin
        Printf.eprintf "error: no input files in %s\n" indir;
        1
      end
      else begin
        let items =
          List.map
            (fun f ->
              {
                Parallel.Corpus.name = f;
                data = Bytes.of_string (read_file (Filename.concat indir f));
              })
            files
        in
        let ir_cache =
          Option.map
            (fun dir ->
              Irdb.Cache.create ~dir ?max_disk_entries:disk_entries
                ?max_disk_bytes:disk_bytes ())
            cache_dir
        in
        let report =
          Parallel.Corpus.rewrite_all ~jobs ~config ~transforms ?ir_cache
            ~corpus_seed:knobs.Zipr.Options.seed items
        in
        ensure_dir outdir;
        List.iter
          (fun (e : Parallel.Corpus.entry) ->
            match e.Parallel.Corpus.result with
            | Ok o ->
                write_file (Filename.concat outdir e.Parallel.Corpus.name)
                  o.Parallel.Corpus.rewritten
            | Error msg -> Printf.eprintf "%s: FAILED: %s\n" e.Parallel.Corpus.name msg)
          report.Parallel.Corpus.entries;
        Format.printf "%a@." Parallel.Corpus.pp_report report;
        if report.Parallel.Corpus.failed = 0 then 0 else 1
      end
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Rewrite every binary in a directory in parallel. Failures are isolated per \
          file: a binary that does not parse or fails to rewrite is reported and the \
          batch continues (exit 1 if any failed).")
    Term.(
      const run $ knobs $ batch_jobs $ ext $ cache_dir $ cache_disk_entries
      $ cache_disk_bytes $ trace $ indir $ outdir)

(* -- serve / client -- *)

let addr_term =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on (or connect to) a Unix socket.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP host.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"N"
          ~doc:"Listen on (or connect to) a TCP port; 0 picks a free port when serving.")
  in
  let pick socket host port =
    match (socket, port) with
    | Some p, None -> Ok (Serve.Protocol.Unix_path p)
    | None, Some n -> Ok (Serve.Protocol.Tcp { host; port = n })
    | Some _, Some _ -> Error "--socket and --port are mutually exclusive"
    | None, None -> Error "one of --socket PATH or --port N is required"
  in
  Term.(const pick $ socket $ host $ port)

let serve_cmd =
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains (0 = auto-detect the core count).")
  in
  let queue_bound =
    Arg.(
      value & opt int 32
      & info [ "queue-bound" ] ~docv:"Q"
          ~doc:
            "Admission bound: at most Q requests may be queued awaiting a worker; \
             requests past the bound get an immediate overloaded response.")
  in
  let max_request =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "max-request-bytes" ] ~docv:"B" ~doc:"Reject larger request payloads.")
  in
  let cache_entries =
    Arg.(value & opt int 256 & info [ "cache-entries" ] ~docv:"N" ~doc:"IR cache entry cap.")
  in
  let cache_bytes =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "cache-bytes" ] ~docv:"B" ~doc:"IR cache resident-byte budget (LRU eviction).")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:"Spill the shared IR cache to this directory.")
  in
  let cache_disk_entries =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-entries" ] ~docv:"N"
          ~doc:"Bound the $(b,--cache) directory to N entry files (oldest pruned).")
  in
  let cache_disk_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-disk-bytes" ] ~docv:"BYTES"
          ~doc:"Bound the $(b,--cache) directory's total size (oldest entries pruned).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace of all served requests on shutdown.")
  in
  (* Accepted so existing daemon command lines keep starting.  --ir-jobs
     has no effect since cold IR construction has one path; --delta none
     since every IR comes from the snapshot cache or a cold build. *)
  let ir_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "ir-jobs" ] ~docv:"N"
          ~deprecated:"ignored: IR construction no longer takes a worker count."
          ~doc:"Ignored.")
  in
  let delta =
    Arg.(
      value & flag
      & info [ "delta" ]
          ~deprecated:"ignored: the IR snapshot cache serves every repeat request."
          ~doc:"Ignored.")
  in
  let run addr jobs defaults queue_bound max_request cache_entries cache_bytes cache_dir
      cache_disk_entries cache_disk_bytes trace (_ : int option) (_ : bool) =
    (* Fail fast on bad default knobs, checked as a search request would
       use them, instead of per request. *)
    match (addr, resolve_knobs { defaults with Zipr.Options.placement = "search" }) with
    | Error msg, _ | _, Error msg ->
        Printf.eprintf "error: %s\n" msg;
        2
    | Ok addr, Ok _ -> (
        with_trace_file trace @@ fun () ->
        let config =
          {
            Serve.Server.jobs = Zipr.Pipeline.resolve_jobs jobs;
            queue_bound = max 1 queue_bound;
            max_request_bytes = max 1024 max_request;
            cache_entries = max 1 cache_entries;
            cache_max_bytes = max 1024 cache_bytes;
            cache_dir;
            cache_disk_entries;
            cache_disk_bytes;
            defaults;
          }
        in
        match Serve.Server.create ~config ~resolve_transform:transform_of_name addr with
        | exception Unix.Unix_error (e, _, arg) ->
            Printf.eprintf "error: cannot listen on %s: %s %s\n"
              (Serve.Protocol.addr_to_string addr)
              (Unix.error_message e) arg;
            1
        | server ->
            let stop _ = Serve.Server.stop server in
            Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
            Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
            Printf.eprintf "ziprtool serve: listening on %s (%d jobs, queue bound %d)\n%!"
              (Serve.Protocol.addr_to_string (Serve.Server.address server))
              config.Serve.Server.jobs config.Serve.Server.queue_bound;
            Serve.Server.serve server;
            let s = Serve.Server.stats server in
            Printf.eprintf
              "ziprtool serve: shut down cleanly: %d requests (%d ok, %d overloaded, %d \
               errors), cache %d hits / %d misses\n"
              s.Serve.Server.accepted s.Serve.Server.ok s.Serve.Server.overloaded
              (s.Serve.Server.bad_request + s.Serve.Server.too_large
             + s.Serve.Server.rewrite_errors)
              s.Serve.Server.cache_hits s.Serve.Server.cache_misses;
            0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the rewriting daemon: a long-lived server that accepts rewrite requests \
          over a Unix or TCP socket, shares one IR cache across all clients, and sheds \
          load with fast overloaded responses once its queue bound is reached. SIGTERM \
          or SIGINT shuts it down cleanly (in-flight requests complete).")
    Term.(
      const run $ addr_term $ jobs $ daemon_knobs $ queue_bound $ max_request
      $ cache_entries $ cache_bytes $ cache_dir $ cache_disk_entries $ cache_disk_bytes
      $ trace $ ir_jobs $ delta)

(* -- gencorpus -- *)

let gencorpus_cmd =
  let outdir = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTDIR") in
  let versions =
    Arg.(
      value & opt int 3
      & info [ "versions" ] ~docv:"N" ~doc:"Number of successive versions to emit.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Generator seed.") in
  let routines =
    Arg.(
      value & opt int 24
      & info [ "routines" ] ~docv:"N" ~doc:"Core routines (live in every version).")
  in
  let body_ops =
    Arg.(
      value & opt int 36
      & info [ "body-ops" ] ~docv:"N" ~doc:"Approximate straight-line ops per routine body.")
  in
  let edits =
    Arg.(
      value & opt int 2
      & info [ "edits" ] ~docv:"N" ~doc:"Edits applied between consecutive versions.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Scale-out mode: instead of a versioned corpus, emit N independent varied \
             binaries (fragmentation-heavy mix; see $(b,bench placement)). Each binary \
             depends only on (--seed, index), so growing N extends the corpus without \
             changing existing files.")
  in
  let run versions seed routines body_ops edits count outdir =
    if count > 0 then begin
      ensure_dir outdir;
      for i = 0 to count - 1 do
        let item = Workloads.Scale.generate_one ~seed i in
        write_file
          (Filename.concat outdir item.Workloads.Scale.name)
          (Zelf.Binary.serialize item.Workloads.Scale.binary)
      done;
      Printf.printf "%s: %d scale-out binaries (seed %d)\n" outdir count seed;
      0
    end
    else if versions < 1 then begin
      Printf.eprintf "error: --versions must be >= 1\n";
      2
    end
    else begin
      ensure_dir outdir;
      let vs =
        Workloads.Versioned.generate ~n_routines:(max 1 routines) ~body_ops:(max 4 body_ops)
          ~edits_per_version:(max 1 edits) ~seed ~versions ()
      in
      List.iter
        (fun (v : Workloads.Versioned.version) ->
          let data = Zelf.Binary.serialize v.Workloads.Versioned.binary in
          let path = Filename.concat outdir (v.Workloads.Versioned.name ^ ".zbf") in
          write_file path data;
          Printf.printf "%s: %d bytes%s\n" path (Bytes.length data)
            (match v.Workloads.Versioned.edits with
            | [] -> ""
            | es ->
                Format.asprintf " (%a)"
                  (Format.pp_print_list
                     ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                     Workloads.Versioned.pp_edit)
                  es))
        vs;
      0
    end
  in
  Cmd.v
    (Cmd.info "gencorpus"
       ~doc:
         "Generate a versioned corpus: N successive versions of one synthetic binary \
          differing by a few local edits each (instruction edits, routine \
          insertions/deletions, data moves), the input of $(b,bench delta). Every \
          version's linear sweep and recursive traversal agree, so its cold IR build \
          takes the validated path, and a repeat is an IR-cache hit. Writes \
          OUTDIR/v0.zbf .. OUTDIR/v<N-1>.zbf, deterministically in --seed. \
          With $(b,--count) N it instead emits N independent varied binaries for \
          scale-out placement experiments.")
    Term.(const run $ versions $ seed $ routines $ body_ops $ edits $ count $ outdir)

let client_cmd =
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Per-request deadline; 0 means none. Expired requests return an error.")
  in
  let do_ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Health check: echo a payload instead of rewriting.")
  in
  let sleep_ms =
    Arg.(
      value & opt int 0
      & info [ "sleep-ms" ] ~docv:"MS" ~doc:"With --ping: ask the server to sleep first.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print the server's per-request stats.") in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"INPUT OUTPUT") in
  let run addr knobs deadline_ms do_ping sleep_ms stats files =
    (* Validate locally before paying for a round trip; the server
       re-validates (it may know different strategies). *)
    match (addr, resolve_knobs knobs) with
    | Error msg, _ ->
        Printf.eprintf "error: %s\n" msg;
        2
    | _, Error msg ->
        Printf.eprintf "error: %s\n" msg;
        1
    | Ok addr, Ok _ -> (
        let deadline_us = max 0 deadline_ms * 1000 in
        let finish (resp : Serve.Protocol.Response.t) on_ok =
          if stats && resp.Serve.Protocol.Response.stats <> "" then
            prerr_string resp.Serve.Protocol.Response.stats;
          match resp.Serve.Protocol.Response.status with
          | Serve.Protocol.Ok_ -> on_ok ()
          | st ->
              Printf.eprintf "error: server answered %s: %s\n"
                (Serve.Protocol.status_to_string st)
                resp.Serve.Protocol.Response.message;
              1
        in
        if do_ping then
          match Serve.Client.ping ~sleep_us:(max 0 sleep_ms * 1000) ~deadline_us addr with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              1
          | Ok resp ->
              finish resp (fun () ->
                  Printf.printf "pong: %s\n" resp.Serve.Protocol.Response.payload;
                  0)
        else
          match files with
          | [ inp; out ] -> (
              match
                Serve.Client.rewrite ~deadline_us ~options:knobs addr (read_file inp)
              with
              | Error msg ->
                  Printf.eprintf "error: %s\n" msg;
                  1
              | Ok resp ->
                  finish resp (fun () ->
                      write_file out
                        (Bytes.of_string resp.Serve.Protocol.Response.payload);
                      Printf.printf "%s: %d -> %d bytes (served)\n" out
                        (String.length (read_file inp))
                        (String.length resp.Serve.Protocol.Response.payload);
                      0))
          | _ ->
              Printf.eprintf "error: expected INPUT and OUTPUT arguments (or --ping)\n";
              2)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running ziprtool serve daemon: rewrite INPUT into OUTPUT \
          remotely, or health-check it with --ping.")
    Term.(
      const run $ addr_term $ knobs $ deadline_ms $ do_ping $ sleep_ms $ stats $ files)

let () =
  let doc = "static binary rewriting for the ZVM (a Zipr reproduction)" in
  let info = Cmd.info "ziprtool" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            asm_cmd; gen_cmd; gencorpus_cmd; rewrite_cmd; run_cmd; disasm_cmd; ir_cmd;
            audit_cmd; fuzz_cmd; batch_cmd; serve_cmd; client_cmd;
          ]))
