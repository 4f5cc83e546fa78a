module Db = Irdb.Db
module Agg = Disasm.Aggregate
module Iset = Zipr_util.Interval_set
module Bytebuf = Zipr_util.Bytebuf
module Dump = Irdb.Dump

type t = {
  db : Db.t;
  aggregate : Agg.t;
  pins : Analysis.Ibt.t;
  fixed_ranges : (int * int) list;
  data_ranges : (int * int) list;
  warnings : string list;
}

let data_ranges_of agg =
  let ranges = ref [] in
  let start = ref (-1) in
  for off = 0 to agg.Agg.len - 1 do
    match (agg.Agg.verdicts.(off), !start) with
    | Agg.Data, -1 -> start := off
    | Agg.Data, _ -> ()
    | _, -1 -> ()
    | _, s ->
        ranges := (agg.Agg.base + s, agg.Agg.base + off) :: !ranges;
        start := -1
  done;
  if !start >= 0 then ranges := (agg.Agg.base + !start, agg.Agg.base + agg.Agg.len) :: !ranges;
  List.rev !ranges

(* [sys 0] is the terminate system call: its syscall number is an
   immediate, so it statically never falls through.  Cutting the edge here
   keeps dead code after exit paths from being glued onto live dollops and
   from confusing function-entry analyses. *)
let falls_through insn =
  Zvm.Insn.has_fallthrough insn && insn <> Zvm.Insn.Sys 0

(* Decode a short chain of rows starting at an address that has no known
   instruction boundary (a pin landed mid-instruction or on bytes the
   disassemblers never claimed).  New rows link into existing boundaries
   when the chain re-synchronizes — the overlapping-instruction case real
   x86 rewriters must also survive. *)
let speculative_decode db binary warnings addr =
  let fetch a = Zelf.Binary.read8 binary a in
  let rec go a budget prev =
    match Db.find_by_orig_addr db a with
    | Some existing ->
        (* Re-synchronized with known code. *)
        (match prev with Some p -> Db.set_fallthrough db p (Some existing) | None -> ());
        None
    | None ->
        if budget = 0 then begin
          warnings := Printf.sprintf "speculative decode at 0x%x exceeded budget" a :: !warnings;
          None
        end
        else
          match Zvm.Decode.decode ~fetch a with
          | Error e ->
              warnings :=
                Printf.sprintf "speculative decode failed at 0x%x: %s" a
                  (Zvm.Decode.error_to_string e)
                :: !warnings;
              None
          | Ok (decoded, len) ->
              let insn = Mandatory.rewrite_insn ~at:a decoded in
              (* orig_addr stays empty: the primary row at this range owns
                 the by-address index. *)
              let id = Db.add_insn db insn in
              (match prev with Some p -> Db.set_fallthrough db p (Some id) | None -> ());
              (* Direct branch targets resolve against known rows — from
                 the decoded displacement, not the stored instruction:
                 [rewrite_insn] zeroes direct-branch displacements (the
                 logical [target] link is the truth), so resolving after
                 the rewrite would aim every branch at [a + len]. *)
              (match Zvm.Insn.static_target ~at:a decoded with
              | Some tgt -> (
                  match Db.find_by_orig_addr db tgt with
                  | Some tid -> Db.set_target db id (Some tid)
                  | None ->
                      warnings :=
                        Printf.sprintf "speculative branch at 0x%x targets unknown 0x%x" a tgt
                        :: !warnings)
              | None -> ());
              if falls_through insn then ignore (go (a + len) (budget - 1) (Some id));
              Some id
  and first a = go a 32 None in
  first addr

(* Everything downstream of disassembly: pin analysis, row/link
   construction, mandatory transforms, pin assignment, entry, function
   identification.  Factored out of {!build} so tests and the layer
   benchmark can run the {e identical} code over an aggregate they
   composed themselves. *)
let build_from_aggregate ?pin_config binary (aggregate : Agg.t) =
  let warnings = ref [] in
  List.iter (fun w -> warnings := w :: !warnings) aggregate.Agg.warnings;
  let pins =
    Obs.span "pins" (fun () -> Analysis.Ibt.compute ?config:pin_config binary aggregate)
  in
  Obs.span "irdb_build" (fun () ->
  let fixed_ranges = Agg.ambiguous_ranges aggregate in
  let data_ranges = data_ranges_of aggregate in
  (* Containment queries (fixed?/data?) run once per boundary and once per
     pin; interval sets make them O(log n) instead of a scan of the range
     list. *)
  let in_fixed = Iset.mem (Iset.of_ranges fixed_ranges) in
  let in_data = Iset.mem (Iset.of_ranges data_ranges) in
  let n_boundaries = Hashtbl.length aggregate.Agg.insn_at in
  let db = Db.create ~size_hint:n_boundaries ~orig:binary () in
  (* Bucket the decoded boundaries by text offset instead of sorting.
     Ascending address stays the canonical row order (ids independent of
     hash-table iteration order — the cache depends on cold builds being
     reproducible) at O(len) instead of O(n log n), and the offset-indexed
     id table hands the link pass its fallthrough successors and branch
     targets without by-address hash lookups. *)
  let base = aggregate.Agg.base and alen = aggregate.Agg.len in
  let slot = Array.make alen None in
  Hashtbl.iter (fun addr b -> slot.(addr - base) <- Some b) aggregate.Agg.insn_at;
  let ids = Array.make alen (-1) in
  for off = 0 to alen - 1 do
    match slot.(off) with
    | None -> ()
    | Some (insn, _len) ->
        let addr = base + off in
        let id = Db.add_insn ~orig_addr:addr db insn in
        ids.(off) <- id;
        (* Fixed rows keep original bytes; marking here folds the old
           whole-db sweep into row creation. *)
        if in_fixed addr then (Db.row db id).Db.fixed <- true
  done;
  (* Logical links, one pass over the same offset table. *)
  for off = 0 to alen - 1 do
    match slot.(off) with
    | None -> ()
    | Some (insn, len) ->
        let addr = base + off in
        let id = ids.(off) in
        (if falls_through insn then
           let nxt = off + len in
           match (if nxt < alen then ids.(nxt) else -1) with
           | -1 ->
               (* Falling into data or off the section: leave open. *)
               if not (in_data (addr + len)) then
                 warnings :=
                   Printf.sprintf "instruction at 0x%x falls through to unknown 0x%x" addr
                     (addr + len)
                   :: !warnings
           | ft -> Db.set_fallthrough db id (Some ft));
        (match Zvm.Insn.static_target ~at:addr insn with
        | Some tgt -> (
            let toff = tgt - base in
            match (if toff >= 0 && toff < alen then ids.(toff) else -1) with
            | -1 ->
                warnings :=
                  Printf.sprintf "branch at 0x%x targets unknown 0x%x" addr tgt :: !warnings
            | tid -> Db.set_target db id (Some tid))
        | None -> ())
  done;
  (* Mandatory transformations, before user transforms see the IR. *)
  Obs.span "mandatory" (fun () -> Mandatory.apply db);
  (* Pin assignment.  Pins that may be targeted by an indirect branch are
     marked (they receive the pin prologue, e.g. CFI landing bytes);
     conservative pins that only straight-line or direct control flow can
     reach are not. *)
  let indirect_reason = function
    | Analysis.Ibt.Data_scan | Analysis.Ibt.Code_immediate | Analysis.Ibt.Jump_table
    | Analysis.Ibt.Computed_target ->
        true
    | Analysis.Ibt.Entry | Analysis.Ibt.After_call | Analysis.Ibt.Fixed_target
    | Analysis.Ibt.Fixed_fallthrough ->
        false
  in
  Obs.span "pin_assign" (fun () ->
  List.iter
    (fun (addr, reasons) ->
      if List.exists indirect_reason reasons then Db.mark_pin db addr;
      if in_data addr then ()  (* data bytes are copied; nothing to pin *)
      else
        match Db.find_by_orig_addr db addr with
        | Some id -> Db.pin db id addr
        | None -> (
            if in_fixed addr then
              (* Inside fixed bytes but not on a decoded boundary: the
                 original bytes are preserved, so the address stays valid
                 without a reference. *)
              ()
            else
              match speculative_decode db binary warnings addr with
              | Some id -> Db.pin db id addr
              | None ->
                  warnings :=
                    Printf.sprintf "pin at 0x%x has no decodable instruction; dropped" addr
                    :: !warnings))
    (Analysis.Ibt.pins pins));
  (* Entry row. *)
  (match Db.find_by_orig_addr db binary.Zelf.Binary.entry with
  | Some id -> Db.set_entry db id
  | None -> warnings := "entry point is not a decoded instruction" :: !warnings);
  Obs.span "funcid" (fun () -> Analysis.Funcid.assign db);
  { db; aggregate; pins; fixed_ranges; data_ranges; warnings = List.rev !warnings })

let build ?pin_config ?(infer = false) binary =
  let aggregate = Obs.span "disasm" (fun () -> Agg.run ~infer binary) in
  build_from_aggregate ?pin_config binary aggregate

(* -- snapshot / restore: the payload behind Irdb.Cache -- *)

(* Bump whenever any serialized shape changes (including the row records
   in {!Irdb.Dump}): the version participates in the cache key, so old
   entries become unreachable instead of misparsed. *)
let snapshot_version = "ZIRIR3"

(* The refinement pass's codec version.  It joins the fingerprint only
   when [--infer] is on, so every cache key gets a codec-version bump
   exactly then and stays byte-identical to previous releases
   otherwise. *)
let infer_codec_version = "ZIRINF1"

let fingerprint ?(infer = false) (config : Analysis.Ibt.config) =
  let base = Printf.sprintf "ibt:pin_after_calls=%b" config.Analysis.Ibt.pin_after_calls in
  if infer then Printf.sprintf "%s;infer=%s" base infer_codec_version else base

let reason_code = function
  | Analysis.Ibt.Entry -> 0
  | Analysis.Ibt.Data_scan -> 1
  | Analysis.Ibt.Code_immediate -> 2
  | Analysis.Ibt.Jump_table -> 3
  | Analysis.Ibt.After_call -> 4
  | Analysis.Ibt.Fixed_target -> 5
  | Analysis.Ibt.Fixed_fallthrough -> 6
  | Analysis.Ibt.Computed_target -> 7

let reason_of_code = function
  | 0 -> Analysis.Ibt.Entry
  | 1 -> Analysis.Ibt.Data_scan
  | 2 -> Analysis.Ibt.Code_immediate
  | 3 -> Analysis.Ibt.Jump_table
  | 4 -> Analysis.Ibt.After_call
  | 5 -> Analysis.Ibt.Fixed_target
  | 6 -> Analysis.Ibt.Fixed_fallthrough
  | 7 -> Analysis.Ibt.Computed_target
  | _ -> failwith "bad pin reason code"

let verdict_code = function Agg.Code -> 0 | Agg.Data -> 1 | Agg.Ambiguous -> 2

(* Refined offsets as (offset, count, tag) runs of consecutive offsets
   with one provenance tag. *)
let rec refined_runs = function
  | [] -> []
  | (off, tag) :: _ as entries ->
      let rec run n = function
        | (o, t) :: rest when o = off + n && t = tag -> run (n + 1) rest
        | rest -> (n, rest)
      in
      let n, rest = run 0 entries in
      (off, n, tag) :: refined_runs rest

(* Layout (see the interface for why boundaries are not stored): the
   version, the text base and length, one byte per text offset (verdict
   in bits 0-1, length of the boundary instruction starting there in
   bits 2-4, 0 = none), the tally, refined runs, pin hints, aggregate
   and IR warnings, pins with reason codes, then the row records
   ({!Irdb.Dump.add_rows}, which leaves out the instruction of every row
   holding its boundary).  Integers are LEB128, strings and lists
   length-prefixed. *)
let snapshot t =
  let agg = t.aggregate in
  let base = agg.Agg.base and len = agg.Agg.len in
  let buf = Bytebuf.create ~capacity:(1024 + len + (16 * Db.count t.db)) () in
  let u8 = Bytebuf.u8 buf and uint = Dump.add_uint buf and str = Dump.add_string buf in
  let list f l =
    uint (List.length l);
    List.iter f l
  in
  Bytebuf.string buf snapshot_version;
  uint base;
  uint len;
  let lens = Bytes.make len '\000' in
  Hashtbl.iter (fun addr (_, l) -> Bytes.set_uint8 lens (addr - base) l) agg.Agg.insn_at;
  for off = 0 to len - 1 do
    u8 (verdict_code agg.Agg.verdicts.(off) lor (Bytes.get_uint8 lens off lsl 2))
  done;
  let ty = agg.Agg.tally in
  List.iter uint
    [
      ty.Agg.case1_code; ty.Agg.case1_data; ty.Agg.case2_disagree; ty.Agg.case3_contradict;
      ty.Agg.case4_low_confidence; ty.Agg.overlap_len_mismatch; ty.Agg.refined_code;
      ty.Agg.refined_data;
    ];
  list (fun (fact, n) -> str fact; uint n) ty.Agg.refined_by_fact;
  list (fun (off, n, tag) -> uint off; uint n; str tag) (refined_runs agg.Agg.refined);
  list uint agg.Agg.pin_hints;
  list str agg.Agg.warnings;
  list str t.warnings;
  list
    (fun (addr, reasons) -> uint addr; list (fun r -> u8 (reason_code r)) reasons)
    (Analysis.Ibt.pins t.pins);
  Dump.add_rows ~boundaries:agg.Agg.insn_at buf t.db;
  Bytebuf.to_string buf

let restore binary payload =
  try
    if not (String.starts_with ~prefix:snapshot_version payload) then
      failwith "snapshot version mismatch";
    let r = Dump.reader ~pos:(String.length snapshot_version) payload in
    let uint () = Dump.read_uint r and str () = Dump.read_string r in
    (* Counts are not trusted to size anything: every element reads at
       least one byte, so a bad count runs off the payload's end. *)
    let list f =
      let rec go n acc = if n = 0 then List.rev acc else go (n - 1) (f () :: acc) in
      go (uint ()) []
    in
    let text = Zelf.Binary.text binary in
    let base = uint () in
    let len = uint () in
    if base <> text.Zelf.Section.vaddr || len <> text.Zelf.Section.size then
      failwith "text base or length differs from the binary's";
    let data = text.Zelf.Section.data in
    let verdicts = Array.make len Agg.Data in
    let insn_at = Hashtbl.create ((len / 4) + 16) in
    for off = 0 to len - 1 do
      let b = Dump.read_u8 r in
      verdicts.(off) <-
        (match b land 3 with
        | 0 -> Agg.Code
        | 1 -> Agg.Data
        | 2 -> Agg.Ambiguous
        | _ -> failwith "bad verdict code");
      let ilen = b lsr 2 in
      if ilen > 0 then
        match Zvm.Decode.decode_sub data ~pos:off ~limit:len with
        | Ok ((_, l) as decoded) when l = ilen -> Hashtbl.add insn_at (base + off) decoded
        | _ ->
            failwith
              (Printf.sprintf "boundary at 0x%x does not decode to %d bytes" (base + off) ilen)
    done;
    let case1_code = uint () in
    let case1_data = uint () in
    let case2_disagree = uint () in
    let case3_contradict = uint () in
    let case4_low_confidence = uint () in
    let overlap_len_mismatch = uint () in
    let refined_code = uint () in
    let refined_data = uint () in
    let refined_by_fact =
      list (fun () ->
          let fact = str () in
          (fact, uint ()))
    in
    (* Runs ascend without overlap, so together they cover at most the
       text. *)
    let next = ref 0 in
    let refined =
      list (fun () ->
          let off = uint () in
          let n = uint () in
          if off < !next || n < 1 || off + n > len then failwith "refined runs out of order";
          next := off + n;
          (off, n, str ()))
      |> List.concat_map (fun (off, n, tag) -> List.init n (fun i -> (off + i, tag)))
    in
    let pin_hints = list uint in
    let agg_warnings = list str in
    let warnings = list str in
    let pins =
      list (fun () ->
          let addr = uint () in
          (addr, list (fun () -> reason_of_code (Dump.read_u8 r))))
    in
    let db = Dump.read_rows ~boundaries:insn_at ~orig:binary r in
    if not (Dump.at_end r) then failwith "trailing bytes after the last record";
    let aggregate =
      {
        Agg.base;
        len;
        verdicts;
        insn_at;
        warnings = agg_warnings;
        tally =
          {
            Agg.case1_code;
            case1_data;
            case2_disagree;
            case3_contradict;
            case4_low_confidence;
            overlap_len_mismatch;
            refined_code;
            refined_data;
            refined_by_fact;
          };
        refined;
        pin_hints;
      }
    in
    Ok
      {
        db;
        aggregate;
        pins = Analysis.Ibt.of_pins pins;
        (* Pure functions of the verdicts; cheaper to recompute than
           to persist and cross-check. *)
        fixed_ranges = Agg.ambiguous_ranges aggregate;
        data_ranges = data_ranges_of aggregate;
        warnings;
      }
  with
  | Failure msg | Invalid_argument msg -> Error msg
  | Not_found -> Error "no text section"
