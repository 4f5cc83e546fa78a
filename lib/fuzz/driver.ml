module Rng = Zipr_util.Rng
module Db = Irdb.Db

type fault = Skip_pin

type xf =
  | Null
  | Cfi
  | Shadow_stack
  | Jumptable_rewrite
  | Stack_pad of int
  | Canary of int
  | Stirring of int
  | Nop_pad of int

type cfg = { transforms : xf list; placement : string; layout_seed : int }

type options = {
  cases : int;
  seed : int;
  max_steps : int;
  fault : fault option;
  structural : bool;
  shrink_budget : int;
  jobs : int;
  infer : bool;
}

let default_options =
  {
    cases = 100;
    seed = 1;
    max_steps = 2_000_000;
    fault = None;
    structural = false;
    shrink_budget = 120;
    jobs = 1;
    infer = false;
  }

type failure = {
  case : int;
  spec : Gen.spec;
  cfg : cfg;
  input : string;
  reason : string;
  min_spec : Gen.spec;
  min_cfg : cfg;
  min_input : string;
  min_reason : string;
  shrink_tests : int;
  repro_zasm : string;
}

type summary = {
  cases_run : int;
  rewrites : int;
  inputs_compared : int;
  failures : failure list;
}

(* -- configuration sampling -- *)

let to_transform = function
  | Null -> Transforms.Null.transform
  | Cfi -> Transforms.Cfi.transform
  | Shadow_stack -> Transforms.Shadow_stack.transform
  | Jumptable_rewrite -> Transforms.Jumptable_rewrite.transform
  | Stack_pad s -> Transforms.Stack_pad.make ~seed:s ()
  | Canary s -> Transforms.Canary.make ~seed:s ()
  | Stirring s -> Transforms.Stirring.make ~seed:s ()
  | Nop_pad s -> Transforms.Nop_pad.make ~seed:s ()

let xf_name = function
  | Null -> "null"
  | Cfi -> "cfi"
  | Shadow_stack -> "shadow_stack"
  | Jumptable_rewrite -> "jumptable_rewrite"
  | Stack_pad s -> Printf.sprintf "stack_pad(%d)" s
  | Canary s -> Printf.sprintf "canary(%d)" s
  | Stirring s -> Printf.sprintf "stirring(%d)" s
  | Nop_pad s -> Printf.sprintf "nop_pad(%d)" s

let cfg_to_string c =
  Printf.sprintf "transforms=[%s] placement=%s layout-seed=%d"
    (String.concat "," (List.map xf_name c.transforms))
    c.placement c.layout_seed

let random_cfg rng =
  let s () = Rng.int_in rng 1 1_000_000 in
  let stack =
    match Rng.int rng 13 with
    | 0 -> [ Null ]
    | 1 -> [ Cfi ]
    | 2 -> [ Shadow_stack ]
    | 3 -> [ Jumptable_rewrite ]
    | 4 -> [ Stack_pad (s ()) ]
    | 5 -> [ Canary (s ()) ]
    | 6 -> [ Stirring (s ()) ]
    | 7 -> [ Nop_pad (s ()) ]
    | 8 -> [ Stirring (s ()); Nop_pad (s ()) ]
    (* Frame transforms in both orders around CFI, whose ret guard they
       must not split from its ret. *)
    | 9 -> [ Cfi; Stack_pad (s ()) ]
    | 10 -> [ Cfi; Canary (s ()) ]
    | 11 -> [ Stack_pad (s ()); Cfi ]
    | _ -> [ Canary (s ()); Cfi ]
  in
  {
    transforms = stack;
    placement = Rng.choose rng [| "naive"; "optimized"; "random" |];
    layout_seed = s ();
  }

(* -- fault injection -- *)

let decode_at binary addr =
  match Zvm.Decode.decode ~fetch:(Zelf.Binary.read8 binary) addr with
  | Ok (i, len) -> Some (i, len)
  | Error _ -> None

let patch_nops binary addr len =
  Zelf.Binary.create ~entry:binary.Zelf.Binary.entry
    (List.map
       (fun (s : Zelf.Section.t) ->
         if Zelf.Section.is_code s && Zelf.Section.contains s addr then begin
           let d = Bytes.copy s.Zelf.Section.data in
           for i = 0 to len - 1 do
             let off = addr - s.Zelf.Section.vaddr + i in
             if off < Bytes.length d then Bytes.set d off '\x90'
           done;
           Zelf.Section.make ~name:s.Zelf.Section.name ~kind:s.Zelf.Section.kind
             ~vaddr:s.Zelf.Section.vaddr d
         end
         else s)
       binary.Zelf.Binary.sections)

(* Overwrite one pinned address's reference jump with no-ops: the pin is
   still "reachable", but arriving there no longer lands on the pinned
   row's relocated instruction.  Prefers the entry pin (always exercised),
   falling back to the middle candidate for variety. *)
let skip_pin (r : Zipr.Pipeline.result) =
  let rewritten = r.Zipr.Pipeline.rewritten in
  let db = r.Zipr.Pipeline.ir.Zipr.Ir_construction.db in
  let candidates =
    List.filter_map
      (fun (addr, rid) ->
        let movable =
          match Db.row db rid with r -> not r.Db.fixed | exception Not_found -> false
        in
        if not movable then None
        else
          match decode_at rewritten addr with
          | Some (Zvm.Insn.Jmp _, len) -> Some (addr, len)
          | _ -> None)
      (Db.pinned_addresses db)
  in
  match candidates with
  | [] -> None
  | cs -> (
      match List.find_opt (fun (a, _) -> a = rewritten.Zelf.Binary.entry) cs with
      | Some (addr, len) -> Some (patch_nops rewritten addr len)
      | None ->
          let addr, len = List.nth cs (List.length cs / 2) in
          Some (patch_nops rewritten addr len))

(* -- testing one (spec, cfg, input) -- *)

type counters = { mutable rewrites : int; mutable inputs : int }

(* Returns the rewritten (possibly fault-injected) binary, or a failure
   reason that already terminates the case.  [ir_cache] pays off inside
   minimization, which re-rewrites the same (or a shrunk) binary once per
   shrink test: only the first rewrite of each distinct binary builds IR. *)
let rewrite_spec ~ir_cache opts counters spec cfg =
  match Gen.build spec with
  | exception Failure msg -> Error ("generator failure: " ^ msg)
  | exception e -> Error ("generator exception: " ^ Printexc.to_string e)
  | binary, inputs -> (
      let config =
        {
          Zipr.Pipeline.placement =
            (match Zipr.Placement.by_name cfg.placement with
            | Some p -> p
            | None -> Zipr.Placement.optimized);
          pin_config = Analysis.Ibt.default_config;
          seed = cfg.layout_seed;
          infer = opts.infer;
        }
      in
      let transforms = List.map to_transform cfg.transforms in
      match Zipr.Pipeline.rewrite ~config ~ir_cache ~transforms binary with
      | exception Zipr.Reassemble.Failure_ msg ->
          counters.rewrites <- counters.rewrites + 1;
          Error ("reassembly failed: " ^ msg)
      | exception e ->
          counters.rewrites <- counters.rewrites + 1;
          Error ("pipeline exception: " ^ Printexc.to_string e)
      | r -> (
          counters.rewrites <- counters.rewrites + 1;
          let structural_issue =
            if not opts.structural then None
            else
              let report =
                Zipr.Verify.structural ~orig:binary ~ir:r.Zipr.Pipeline.ir
                  ~rewritten:r.Zipr.Pipeline.rewritten
              in
              if Zipr.Verify.ok report then None
              else Some (Format.asprintf "structural: %a" Zipr.Verify.pp_report report)
          in
          match structural_issue with
          | Some msg -> Error msg
          | None ->
              let rewritten =
                match opts.fault with
                | None -> Some r.Zipr.Pipeline.rewritten
                | Some Skip_pin -> skip_pin r
              in
              (* A fault that found no pin to skip leaves the case clean. *)
              let rewritten = Option.value rewritten ~default:r.Zipr.Pipeline.rewritten in
              Ok (binary, rewritten, inputs)))

(* First failing input for the case, or None. *)
let check_case ~ir_cache opts counters spec cfg =
  match rewrite_spec ~ir_cache opts counters spec cfg with
  | Error reason -> Some ("", reason)
  | Ok (orig, rewritten, inputs) ->
      List.find_map
        (fun input ->
          counters.inputs <- counters.inputs + 1;
          match Diff.compare_on ~fuel:opts.max_steps ~orig ~rewritten input with
          | Diff.Diverged reason -> Some (input, reason)
          | Diff.Equivalent | Diff.Undecided -> None)
        inputs

(* Does this exact (spec, cfg, input) still fail?  Used by the shrinker. *)
let still_fails ~ir_cache opts counters (spec, cfg, input) =
  match rewrite_spec ~ir_cache opts counters spec cfg with
  | Error _ -> true
  | Ok (orig, rewritten, _) -> (
      counters.inputs <- counters.inputs + 1;
      match Diff.compare_on ~fuel:opts.max_steps ~orig ~rewritten input with
      | Diff.Diverged _ -> true
      | Diff.Equivalent | Diff.Undecided -> false)

let failure_reason ~ir_cache opts counters (spec, cfg, input) =
  match rewrite_spec ~ir_cache opts counters spec cfg with
  | Error reason -> reason
  | Ok (orig, rewritten, _) -> (
      match Diff.compare_on ~fuel:opts.max_steps ~orig ~rewritten input with
      | Diff.Diverged reason -> reason
      | Diff.Equivalent -> "no longer diverges (unstable shrink)"
      | Diff.Undecided -> "original exhausted its budget")

let shrink_candidates (spec, cfg, input) =
  let specs = List.map (fun s -> (s, cfg, input)) (Gen.shrink spec) in
  let cfgs =
    if List.length cfg.transforms <= 0 then []
    else
      List.mapi
        (fun i _ ->
          let transforms = List.filteri (fun j _ -> j <> i) cfg.transforms in
          (spec, { cfg with transforms }, input))
        cfg.transforms
  in
  let inputs = List.map (fun s -> (spec, cfg, s)) (Shrink.shrink_string input) in
  specs @ cfgs @ inputs

let minimize ~ir_cache opts counters spec cfg input =
  Shrink.greedy ~budget:opts.shrink_budget
    ~check:(still_fails ~ir_cache opts counters)
    ~candidates:shrink_candidates (spec, cfg, input)

let hex_of_string s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

let repro_listing (spec, cfg, input) reason =
  let listing =
    match Gen.build spec with
    | binary, _ -> Zasm.Printer.program_listing binary
    | exception _ -> "; (program did not assemble)\n"
  in
  Printf.sprintf
    "; ziprtool fuzz reproducer\n; spec: %s\n; config: %s\n; input (hex): %s\n; reason: %s\n%s"
    (Gen.describe spec) (cfg_to_string cfg) (hex_of_string input) reason listing

(* -- the main loop -- *)

(* One whole case — generation, rewrite, differential executions, and on
   failure the full minimization — as a pure function of its own RNG.
   This is the unit the parallel driver shards: per-case counters merge
   by summation, per-case verdicts assemble in case order, so the summary
   is identical whatever the worker count. *)
let run_case ~ir_cache opts log case rng =
  let counters = { rewrites = 0; inputs = 0 } in
  let spec = Gen.random_spec rng in
  let cfg = random_cfg rng in
  let failure =
    match check_case ~ir_cache opts counters spec cfg with
    | None -> None
    | Some (input, reason) ->
        log (Printf.sprintf "case %d FAILED: %s (minimizing...)" case reason);
        let (min_spec, min_cfg, min_input), shrink_tests =
          minimize ~ir_cache opts counters spec cfg input
        in
        let min_reason = failure_reason ~ir_cache opts counters (min_spec, min_cfg, min_input) in
        Some
          {
            case;
            spec;
            cfg;
            input;
            reason;
            min_spec;
            min_cfg;
            min_input;
            min_reason;
            shrink_tests;
            repro_zasm = repro_listing (min_spec, min_cfg, min_input) min_reason;
          }
  in
  (counters, failure)

let run ?(log = fun _ -> ()) opts =
  (* Case streams derive from the master serially, before any fan-out, so
     case [i] sees the same RNG under every [jobs] value. *)
  let master = Rng.create opts.seed in
  let case_rngs = Array.init (max 0 opts.cases) (fun _ -> Rng.split master) in
  (* One mutex-protected cache shared by every case and worker: restored
     IR is identical to cold-built IR, so hit/miss mix (which does vary
     with scheduling) never reaches the deterministic surface. *)
  let ir_cache = Irdb.Cache.create () in
  let results =
    if opts.jobs <= 1 then
      Array.mapi
        (fun case rng ->
          let r = run_case ~ir_cache opts log case rng in
          (match r with
          | _, Some _ | _, None ->
              if (case + 1) mod 50 = 0 then
                log (Printf.sprintf "%d/%d cases" (case + 1) opts.cases));
          r)
        case_rngs
    else
      let timed, _, _ =
        Parallel.Pool.map ~jobs:opts.jobs
          (fun (case, rng) -> run_case ~ir_cache opts log case rng)
          (Array.mapi (fun case rng -> (case, rng)) case_rngs)
      in
      Array.map (fun t -> t.Parallel.Pool.value) timed
  in
  let rewrites = ref 0 and inputs = ref 0 and failures = ref [] in
  (* Case order, not completion order: failure ordering is part of the
     deterministic surface. *)
  Array.iter
    (fun (c, f) ->
      rewrites := !rewrites + c.rewrites;
      inputs := !inputs + c.inputs;
      match f with Some f -> failures := f :: !failures | None -> ())
    results;
  {
    cases_run = max 0 opts.cases;
    rewrites = !rewrites;
    inputs_compared = !inputs;
    failures = List.rev !failures;
  }

let render_summary s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "fuzz: %d cases, %d rewrites, %d differential executions, %d failures\n"
       s.cases_run s.rewrites s.inputs_compared (List.length s.failures));
  List.iter
    (fun f ->
      Buffer.add_string b (Printf.sprintf "case %d: %s\n" f.case f.reason);
      Buffer.add_string b (Printf.sprintf "  spec: %s\n" (Gen.describe f.spec));
      Buffer.add_string b (Printf.sprintf "  config: %s\n" (cfg_to_string f.cfg));
      Buffer.add_string b (Printf.sprintf "  input (hex): %s\n" (hex_of_string f.input));
      Buffer.add_string b
        (Printf.sprintf "  minimized (%d shrink tests): %s\n" f.shrink_tests
           (Gen.describe f.min_spec));
      Buffer.add_string b (Printf.sprintf "  min config: %s\n" (cfg_to_string f.min_cfg));
      Buffer.add_string b
        (Printf.sprintf "  min input (hex): %s\n" (hex_of_string f.min_input));
      Buffer.add_string b (Printf.sprintf "  min reason: %s\n" f.min_reason))
    s.failures;
  Buffer.contents b
