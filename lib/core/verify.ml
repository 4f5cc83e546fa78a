module Db = Irdb.Db

type issue = { check : string; detail : string }

type report = { issues : issue list; checks_run : int }

let ok r = r.issues = []

let pp_report ppf r =
  if ok r then Format.fprintf ppf "verify: %d checks, all passed" r.checks_run
  else begin
    Format.fprintf ppf "verify: %d checks, %d issues:@." r.checks_run (List.length r.issues);
    List.iter (fun i -> Format.fprintf ppf "  [%s] %s@." i.check i.detail) r.issues
  end

type ctx = { mutable issues : issue list; mutable checks : int }

let check ctx name cond fmt =
  ctx.checks <- ctx.checks + 1;
  Format.kasprintf
    (fun detail -> if not cond then ctx.issues <- { check = name; detail } :: ctx.issues)
    fmt

let code_sections binary =
  List.filter Zelf.Section.is_code binary.Zelf.Binary.sections

let in_code binary addr =
  List.exists (fun s -> Zelf.Section.contains s addr) (code_sections binary)

let decodes binary addr =
  let fetch a = Zelf.Binary.read8 binary a in
  match Zvm.Decode.decode ~fetch addr with Ok (i, _) -> Some i | Error _ -> None

(* Follow a reference jump (with possible chaining) to its final
   destination; returns None on a malformed path. *)
let rec follow binary addr budget =
  if budget = 0 then None
  else
    match decodes binary addr with
    | Some (Zvm.Insn.Jmp (w, disp)) ->
        let next = addr + Zvm.Insn.size (Zvm.Insn.Jmp (w, disp)) + disp in
        if in_code binary next then
          match decodes binary next with
          | Some (Zvm.Insn.Jmp _) -> follow binary next (budget - 1)
          | Some _ -> Some next
          | None -> None
        else None
    | Some _ -> Some addr
    | None -> None

(* Walk a sled from one of its entries: a chain of push-immediates and
   no-op-equivalent filler must reach the 5-byte dispatch jump, and that
   jump must land on decodable code (§II-C2).  Returns an error message
   on any malformed step. *)
let sled_walk binary entry =
  let rec go addr budget =
    if budget = 0 then Error (Printf.sprintf "walk from 0x%x does not terminate" entry)
    else
      match decodes binary addr with
      | Some (Zvm.Insn.Jmp _) -> (
          match follow binary addr 32 with
          | Some final when in_code binary final -> Ok final
          | Some final -> Error (Printf.sprintf "dispatch lands outside code (0x%x)" final)
          | None -> Error (Printf.sprintf "dispatch jump at 0x%x lands on junk" addr))
      | Some ((Zvm.Insn.Pushi _ | Zvm.Insn.Nop | Zvm.Insn.Land | Zvm.Insn.Retland) as i) ->
          go (addr + Zvm.Insn.size i) (budget - 1)
      | Some i ->
          Error (Printf.sprintf "unexpected %s inside sled at 0x%x" (Zvm.Insn.to_string i) addr)
      | None -> Error (Printf.sprintf "undecodable sled byte at 0x%x" addr)
  in
  go entry 64

let structural ~orig ~(ir : Ir_construction.t) ~rewritten =
  let ctx = { issues = []; checks = 0 } in
  (* 1. Serialization roundtrip. *)
  (match Zelf.Binary.parse (Zelf.Binary.serialize rewritten) with
  | Ok _ -> check ctx "roundtrip" true ""
  | Error e ->
      check ctx "roundtrip" false "rewritten binary does not reparse: %a"
        Zelf.Binary.pp_parse_error e);
  (* 2. Entry point preserved. *)
  check ctx "entry" (rewritten.Zelf.Binary.entry = orig.Zelf.Binary.entry)
    "entry moved from 0x%x to 0x%x" orig.Zelf.Binary.entry rewritten.Zelf.Binary.entry;
  (* 3. Original non-text sections survive byte-for-byte. *)
  List.iter
    (fun (s : Zelf.Section.t) ->
      if not (Zelf.Section.is_code s) then
        match Zelf.Binary.find_section rewritten s.Zelf.Section.name with
        | None ->
            check ctx "data-segment" false "section %s missing from output" s.Zelf.Section.name
        | Some s' ->
            check ctx "data-segment"
              (s'.Zelf.Section.vaddr = s.Zelf.Section.vaddr
              && s'.Zelf.Section.data = s.Zelf.Section.data)
              "section %s was modified" s.Zelf.Section.name)
    orig.Zelf.Binary.sections;
  (* 4. Fixed and data-in-text ranges byte-identical. *)
  let byte_equal (lo, hi) =
    let rec go a = a >= hi || (Zelf.Binary.read8 orig a = Zelf.Binary.read8 rewritten a && go (a + 1)) in
    go lo
  in
  List.iter
    (fun range ->
      check ctx "fixed-range" (byte_equal range) "fixed range [0x%x,0x%x) changed" (fst range)
        (snd range))
    ir.Ir_construction.fixed_ranges;
  List.iter
    (fun range ->
      check ctx "data-in-text" (byte_equal range) "data range [0x%x,0x%x) changed" (fst range)
        (snd range))
    ir.Ir_construction.data_ranges;
  (* 5. Every movable pin decodes and its reference path stays in code. *)
  let db = ir.Ir_construction.db in
  let prologue_len =
    List.fold_left (fun acc i -> acc + Zvm.Insn.size i) 0 (Db.pin_prologue db)
  in
  List.iter
    (fun (addr, rid) ->
      let movable = match Db.row db rid with r -> not r.Db.fixed | exception Not_found -> false in
      if movable then begin
        (match decodes rewritten addr with
        | None -> check ctx "pin-decodes" false "pinned address 0x%x does not decode" addr
        | Some insn ->
            check ctx "pin-decodes" true "";
            (* Skip the prologue if the pin is marked and carries one. *)
            let ref_at =
              if Db.pin_is_marked db addr && prologue_len > 0 then addr + prologue_len else addr
            in
            let entry_insn = if ref_at = addr then Some insn else decodes rewritten ref_at in
            match entry_insn with
            | Some (Zvm.Insn.Jmp _) -> (
                match follow rewritten ref_at 32 with
                | Some final ->
                    check ctx "pin-reference" (in_code rewritten final)
                      "pin 0x%x resolves outside code (0x%x)" addr final
                | None ->
                    check ctx "pin-reference" false "pin 0x%x has an unfollowable reference" addr)
            | Some (Zvm.Insn.Pushi v) when
                (match (Db.row db rid).Db.insn with
                 | Zvm.Insn.Pushi v' -> v' <> v
                 | _ -> true) -> (
                (* Sled entry (the pinned row's own instruction is not this
                   push, so the push must be sled bytes): walk the sled to
                   its dispatch jump and check where dispatch lands. *)
                match sled_walk rewritten ref_at with
                | Ok _ -> check ctx "sled-dispatch" true ""
                | Error msg -> check ctx "sled-dispatch" false "pin 0x%x: %s" addr msg)
            | Some (Zvm.Insn.Pushi _) ->
                (* Colocated: the pinned push-immediate itself sits here. *)
                check ctx "pin-reference" true ""
            | Some _ ->
                (* Colocated: the pinned instruction itself sits here. *)
                check ctx "pin-reference" true ""
            | None -> check ctx "pin-reference" false "pin 0x%x prologue leads nowhere" addr)
      end)
    (Db.pinned_addresses db);
  (* 6. The rewritten entry decodes. *)
  check ctx "entry-decodes" (decodes rewritten rewritten.Zelf.Binary.entry <> None)
    "entry 0x%x does not decode" rewritten.Zelf.Binary.entry;
  { issues = List.rev ctx.issues; checks_run = ctx.checks }

type verdict = Equivalent | Undecided | Diverged of string

let rewrite_fuel fuel = (2 * fuel) + 4096

(* Address-insensitive rendering of a stop: two stops of one kind are
   equal under the rule. *)
let stop_kind = function
  | Zvm.Vm.Halted -> "halted"
  | Zvm.Vm.Exited n -> Printf.sprintf "exit %d" n
  | Zvm.Vm.Fault (Zvm.Vm.Decode_fault _) -> "decode-fault"
  | Zvm.Vm.Fault (Zvm.Vm.Mem_fault _) -> "mem-fault"
  | Zvm.Vm.Fault (Zvm.Vm.Div_fault _) -> "div-fault"
  | Zvm.Vm.Fault (Zvm.Vm.Bad_syscall _) -> "bad-syscall"
  | Zvm.Vm.Fault Zvm.Vm.Fuel_exhausted -> "hang"

let render_syscalls t = String.concat ";" (List.map string_of_int t)

let exhausted (r : Zvm.Vm.result) = r.stop = Zvm.Vm.Fault Zvm.Vm.Fuel_exhausted

let compare_runs ~(orig : Zvm.Vm.result) ~(rewritten : Zvm.Vm.result) =
  if exhausted orig then Undecided
  else
    let ka = stop_kind orig.stop and kb = stop_kind rewritten.stop in
    if ka <> kb then Diverged (Printf.sprintf "stop: %s vs %s" ka kb)
    else if orig.output <> rewritten.output then
      Diverged (Printf.sprintf "output: %S vs %S" orig.output rewritten.output)
    else if orig.syscalls <> rewritten.syscalls then
      Diverged
        (Printf.sprintf "syscall trace: [%s] vs [%s]" (render_syscalls orig.syscalls)
           (render_syscalls rewritten.syscalls))
    else Equivalent

let compare_on ?(fuel = 2_000_000) ~orig ~rewritten input =
  let a = Zelf.Image.boot ~fuel orig ~input in
  if exhausted a then Undecided
  else
    compare_runs ~orig:a ~rewritten:(Zelf.Image.boot ~fuel:(rewrite_fuel fuel) rewritten ~input)

let transcripts ?fuel ~orig ~rewritten inputs =
  let ctx = { issues = []; checks = 0 } in
  List.iter
    (fun input ->
      match compare_on ?fuel ~orig ~rewritten input with
      | Diverged reason -> check ctx "transcript" false "divergence on %S: %s" input reason
      | Equivalent | Undecided -> check ctx "transcript" true "")
    inputs;
  { issues = List.rev ctx.issues; checks_run = ctx.checks }

let full ?fuel ?(inputs = [ "" ]) ~orig ~ir ~rewritten () =
  let s = structural ~orig ~ir ~rewritten in
  let t = transcripts ?fuel ~orig ~rewritten inputs in
  { issues = s.issues @ t.issues; checks_run = s.checks_run + t.checks_run }
