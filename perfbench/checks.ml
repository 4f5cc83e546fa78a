(* Output checks, run on ZVM after the timed phase.  A check that fails
   makes its request count as failed; it never aborts the run. *)

(* Poller-style inputs for binaries that come without pollers, fixed so
   a transcript difference is a property of the rewrite alone.  Every
   checked output runs the cheap pair (function-pointer calls, hidden
   code, two handlers, unknown commands; an EOF ending), which also
   gives its overheads; every [sweep_every]-th runs the handler sweep
   too, whose hot loops cost ~19 ms a pair. *)
let cheap_inputs = [ "p\000p\003p\007d\005h1i2!z~q"; "" ]
let sweep_input = "0123456789:;q"
let sweep_every = 5

type usage = { cycles : int; rss_pages : int }

(* Run original and rewritten on every input; transcripts (output bytes
   and stop status) must match.  Returns summed cycles and peak pages
   of each side. *)
let differential ~orig ~rewritten inputs =
  let rec go (uo, ur) = function
    | [] -> Ok (uo, ur)
    | input :: rest ->
        let script = { Cgc.Poller.input } in
        let a = Cgc.Poller.run orig script and b = Cgc.Poller.run rewritten script in
        if a.Zvm.Vm.output <> b.Zvm.Vm.output then
          Error (Printf.sprintf "transcript differs on input %S" input)
        else if not (Zvm.Vm.equal_stop a.Zvm.Vm.stop b.Zvm.Vm.stop) then
          Error
            (Printf.sprintf "stop differs on input %S: %s vs %s" input
               (Zvm.Vm.stop_to_string a.Zvm.Vm.stop)
               (Zvm.Vm.stop_to_string b.Zvm.Vm.stop))
        else
          let add u (r : Zvm.Vm.result) =
            { cycles = u.cycles + r.cycles; rss_pages = max u.rss_pages r.max_rss_pages }
          in
          go (add uo a, add ur b) rest
  in
  let zero = { cycles = 0; rss_pages = 0 } in
  go (zero, zero) inputs

(* Overheads of one checked output, as in Figures 4-7: file size,
   summed cycles and peak resident pages, rewritten over original. *)
type overheads = { size_pct : float; exec_pct : float; mem_pct : float }

let overheads ~orig_bytes ~out_bytes (uo, ur) =
  {
    size_pct = Harness.overhead_pct ~base:orig_bytes ~measured:out_bytes;
    exec_pct = Harness.overhead_pct ~base:uo.cycles ~measured:ur.cycles;
    mem_pct = Harness.overhead_pct ~base:uo.rss_pages ~measured:ur.rss_pages;
  }

let parse_output out =
  match Zelf.Binary.parse (Bytes.unsafe_of_string out) with
  | Ok b -> Ok b
  | Error e -> Error (Format.asprintf "output does not parse: %a" Zelf.Binary.pp_parse_error e)

(* A rewritten binary checked against its original on the fixed
   inputs; [sweep] adds the handler sweep. *)
let fixed_input_check ~sweep ~orig ~orig_bytes out =
  Result.bind (parse_output out) (fun rewritten ->
      Result.bind (differential ~orig ~rewritten cheap_inputs) (fun usage ->
          let ov = overheads ~orig_bytes ~out_bytes:(String.length out) usage in
          if sweep then Result.map (fun _ -> ov) (differential ~orig ~rewritten [ sweep_input ])
          else Ok ov))

(* A CFI-rewritten challenge binary: every poller transcript matches the
   original's and every proof of vulnerability is blocked. *)
let cgc_check (e : Cgc.Corpus.entry) ~orig_bytes out =
  Result.bind (parse_output out) (fun rewritten ->
      Result.bind
        (differential ~orig:e.Cgc.Corpus.binary ~rewritten
           (List.map (fun (s : Cgc.Poller.script) -> s.Cgc.Poller.input) e.Cgc.Corpus.pollers))
        (fun usage ->
          match
            List.find_opt
              (fun (_, o) -> match o with Cgc.Pov.Blocked _ -> false | _ -> true)
              (Cgc.Pov.attempt_all rewritten e.Cgc.Corpus.meta)
          with
          | Some (kind, _) -> Error (kind ^ " proof of vulnerability not blocked")
          | None -> Ok (overheads ~orig_bytes ~out_bytes:(String.length out) usage)))

(* [size_overhead_pct] is the mean over every output answered Ok: a
   file's size needs no run.  The run-time overheads are means over the
   checked outputs whose runs passed; with none, they are undefined. *)
let mean_overheads ~sizes (runs : overheads list) =
  let m f = Harness.mean (List.map f runs) in
  let metric = Harness.metric in
  [
    metric "size_overhead_pct" "%" (Harness.mean sizes);
    metric "exec_overhead_pct" "%" (m (fun o -> o.exec_pct));
    metric "mem_overhead_pct" "%" (m (fun o -> o.mem_pct));
  ]
