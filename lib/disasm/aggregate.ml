type verdict = Code | Data | Ambiguous

type tally = {
  case1_code : int;
  case1_data : int;
  case2_disagree : int;
  case3_contradict : int;
  case4_low_confidence : int;
  overlap_len_mismatch : int;
  refined_code : int;
  refined_data : int;
  refined_by_fact : (string * int) list;
}

let tally_zero =
  {
    case1_code = 0;
    case1_data = 0;
    case2_disagree = 0;
    case3_contradict = 0;
    case4_low_confidence = 0;
    overlap_len_mismatch = 0;
    refined_code = 0;
    refined_data = 0;
    refined_by_fact = [];
  }

(* Associative, commutative fact-count union: merged per name, sorted, so
   a batch total is independent of job order and count. *)
let merge_facts a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (a @ b);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let merge_stats a b =
  {
    case1_code = a.case1_code + b.case1_code;
    case1_data = a.case1_data + b.case1_data;
    case2_disagree = a.case2_disagree + b.case2_disagree;
    case3_contradict = a.case3_contradict + b.case3_contradict;
    case4_low_confidence = a.case4_low_confidence + b.case4_low_confidence;
    overlap_len_mismatch = a.overlap_len_mismatch + b.overlap_len_mismatch;
    refined_code = a.refined_code + b.refined_code;
    refined_data = a.refined_data + b.refined_data;
    refined_by_fact = merge_facts a.refined_by_fact b.refined_by_fact;
  }

let tally_fields t =
  [
    ("case1_code", t.case1_code);
    ("case1_data", t.case1_data);
    ("case2_disagree", t.case2_disagree);
    ("case3_contradict", t.case3_contradict);
    ("case4_low_confidence", t.case4_low_confidence);
    ("overlap_len_mismatch", t.overlap_len_mismatch);
    ("refined_code", t.refined_code);
    ("refined_data", t.refined_data);
  ]
  @ List.map (fun (k, v) -> ("refined." ^ k, v)) t.refined_by_fact

type t = {
  base : int;
  len : int;
  verdicts : verdict array;
  insn_at : (int, Zvm.Insn.t * int) Hashtbl.t;
  warnings : string list;
  tally : tally;
  refined : (int * string) list;
  pin_hints : int list;
}

let pp_verdict ppf = function
  | Code -> Format.pp_print_string ppf "code"
  | Data -> Format.pp_print_string ppf "data"
  | Ambiguous -> Format.pp_print_string ppf "ambiguous"

(* Per primary source, the length of the instruction it claims to start
   at each text offset, or 0.  The primaries ([Source.of_linear],
   [Source.of_recursive], [Superset.run]) only record decodes of text
   bytes, each address once; anything else is rejected. *)
let boundary_lengths ~base ~len (s : Source.t) =
  let lens = Array.make len 0 in
  Hashtbl.iter
    (fun addr (_, ilen) ->
      let off = addr - base in
      if off < 0 || off >= len || ilen < 1 || lens.(off) <> 0 then
        invalid_arg
          (Printf.sprintf
             "Aggregate.combine_sources: %s boundary 0x%x+%d is outside the text, empty or bound twice"
             s.Source.name addr ilen);
      lens.(off) <- ilen)
    s.Source.insns;
  lens

(* Satellite accounting: ranges where sources claim overlapping
   instructions of {e different lengths}.  The per-byte loop below folds
   these into cases 2/4 (correct but silent); here each overlapping
   boundary pair with mismatched lengths is reported and counted, without
   changing any verdict.

   Boundaries are visited in (address, length, name) order — text offsets
   upward, and at one offset by length, then name — and each is paired
   with every earlier boundary still covering its address, latest first.
   No boundary is longer than [max_len], so the look-back spans at most
   [max_len - 1] offsets.  [names] are in sorted order and [lens.(i)] is
   the {!boundary_lengths} of source [names.(i)], so sorting the
   boundaries at one offset by length alone (stably) is enough. *)
let overlap_mismatches ~base ~len (names : string array) (lens : int array array) =
  let k = Array.length lens in
  let max_len = ref 0 in
  Array.iter (Array.iter (fun l -> if l > !max_len then max_len := l)) lens;
  let count = ref 0 and warnings = ref [] in
  (* Fill [order] with the sources starting a boundary at [off], in
     (length, name) order; return how many. *)
  let at off order =
    let m = ref 0 in
    for i = 0 to k - 1 do
      let l = lens.(i).(off) in
      if l > 0 then begin
        let j = ref !m in
        while !j > 0 && lens.(order.(!j - 1)).(off) > l do
          order.(!j) <- order.(!j - 1);
          decr j
        done;
        order.(!j) <- i;
        incr m
      end
    done;
    !m
  in
  let check ei ea el bi boff bl =
    if el <> bl && not (ea = boff && String.equal names.(ei) names.(bi)) then begin
      incr count;
      warnings :=
        Printf.sprintf
          "overlapping instruction claims of different lengths: %s@0x%x+%d vs %s@0x%x+%d"
          names.(ei) (base + ea) el names.(bi) (base + boff) bl
        :: !warnings
    end
  in
  (* [reach.(a)]: the longest boundary starting at offset [a], or 0. *)
  let reach = Array.make len 0 in
  let here = Array.make k 0 and back = Array.make k 0 in
  for off = 0 to len - 1 do
    let m = at off here in
    if m > 0 then reach.(off) <- lens.(here.(m - 1)).(off);
    for x = 0 to m - 1 do
      let bi = here.(x) in
      let bl = lens.(bi).(off) in
      for y = x - 1 downto 0 do
        check here.(y) off lens.(here.(y)).(off) bi off bl
      done;
      for a = off - 1 downto max 0 (off - !max_len + 1) do
        if reach.(a) > off - a then
          for y = at a back - 1 downto 0 do
            let el = lens.(back.(y)).(a) in
            if a + el > off then check back.(y) a el bi off bl
          done
      done
    done
  done;
  (!count, List.rev !warnings)

(* N-way aggregation rule (generalizing the paper's case analysis to any
   number of tools):

   - a byte is [Code] iff at least one high-confidence primary source
     claims it as code and every primary that claims anything agrees on
     the covering instruction's start;
   - a byte is [Data] iff no primary claims it as code;
   - anything else — disagreement, or code claimed only by low-confidence
     sources (possibly misdecoded data, case 4) — is [Ambiguous].

   Refiner sources never participate in that verdict: afterwards they may
   flip bytes judged [Ambiguous] (to [Code] when consistent with every
   primary code claim, to [Data] when no high-confidence claim opposes),
   and nothing else.  A byte the primaries agreed on is never overturned,
   so with the refiners of {!Infer} the paper's conservatism is preserved
   and soundness reduces to the inference pass alone. *)
let combine_sources binary (sources : Source.t list) =
  (match sources with
  | [] -> invalid_arg "Aggregate.combine_sources: no sources"
  | _ -> ());
  let first = List.hd sources in
  let base = first.Source.base and len = first.Source.len in
  List.iter
    (fun (s : Source.t) ->
      if s.Source.base <> base || s.Source.len <> len then
        invalid_arg "Aggregate.combine_sources: sources cover different ranges")
    sources;
  let primaries = List.filter (fun (s : Source.t) -> s.Source.kind = Source.Primary) sources in
  let refiners = List.filter (fun (s : Source.t) -> s.Source.kind = Source.Refiner) sources in
  (match primaries with
  | [] -> invalid_arg "Aggregate.combine_sources: no primary source"
  | _ -> ());
  let by_name =
    List.stable_sort (fun (a : Source.t) b -> String.compare a.Source.name b.Source.name) primaries
    |> Array.of_list
  in
  let boundary_lens = Array.map (boundary_lengths ~base ~len) by_name in
  (* Preextract the per-source claim arrays and confidences once, then
     judge every byte in a single allocation-free inner loop: the verdict
     needs only the first claimed start, start agreement, whether any
     high-confidence tool claimed code, and whether any tool claimed data.
     Allocation happens only on the (rare) warning paths. *)
  let srcs = Array.of_list primaries in
  let n_sources = Array.length srcs in
  let claims = Array.map (fun (s : Source.t) -> s.Source.claims) srcs in
  let high = Array.map (fun (s : Source.t) -> s.Source.confidence = Source.High) srcs in
  let verdicts = Array.make len Data in
  let warnings = ref [] in
  let warn fmt = Format.kasprintf (fun s -> warnings := s :: !warnings) fmt in
  let c1_code = ref 0 and c1_data = ref 0 in
  let c2 = ref 0 and c3 = ref 0 and c4 = ref 0 in
  for off = 0 to len - 1 do
    let n_code = ref 0 and start0 = ref 0 and agree = ref true in
    let high_claim = ref false and data_claimed = ref false in
    for i = 0 to n_sources - 1 do
      match claims.(i).(off) with
      | Source.Code start ->
          if !n_code = 0 then start0 := start else if start <> !start0 then agree := false;
          incr n_code;
          if high.(i) then high_claim := true
      | Source.Data -> data_claimed := true
      | Source.Unknown -> ()
    done;
    verdicts.(off) <-
      (if !n_code = 0 then begin incr c1_data; Data end
       else if not !agree then begin
         warn "boundary disagreement at 0x%x (%s)" (base + off)
           (String.concat ", "
              (List.filter_map
                 (fun (s : Source.t) ->
                   match s.Source.claims.(off) with
                   | Source.Code st -> Some (Printf.sprintf "%s@0x%x" s.Source.name st)
                   | _ -> None)
                 primaries));
         incr c2;
         Ambiguous
       end
       else if !data_claimed then begin
         if !high_claim then
           warn "data claim at 0x%x contradicted by a high-confidence code claim" (base + off);
         incr c3;
         Ambiguous
       end
       else if !high_claim then begin incr c1_code; Code end
       else begin (* only low-confidence tools call it code: case 4 *) incr c4; Ambiguous end)
  done;
  let overlap_count, overlap_warnings =
    overlap_mismatches ~base ~len (Array.map (fun (s : Source.t) -> s.Source.name) by_name) boundary_lens
  in
  List.iter (fun w -> warnings := w :: !warnings) overlap_warnings;
  (* Refinement pass: each refiner may flip ambiguous bytes only.  A flip
     to [Code start] requires every primary code claim on the byte to
     agree with [start] (high-confidence data claims would keep it
     ambiguous, but no primary emits those); a flip to [Data] requires no
     high-confidence code claim.  Flips record the refiner's per-byte
     provenance tag, and the flipped instruction boundaries join the
     merge below so downstream IR construction sees the refined code. *)
  let refined = ref [] in
  let r_code = ref 0 and r_data = ref 0 in
  let fact_counts = Hashtbl.create 8 in
  let bump_fact tag =
    Hashtbl.replace fact_counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt fact_counts tag))
  in
  let flipped_starts : (int, Zvm.Insn.t * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Source.t) ->
      for off = 0 to len - 1 do
        if verdicts.(off) = Ambiguous then
          match r.Source.claims.(off) with
          | Source.Unknown -> ()
          | Source.Code s ->
              let ok = ref true in
              for i = 0 to n_sources - 1 do
                match claims.(i).(off) with
                | Source.Code st -> if st <> s then ok := false
                | Source.Data | Source.Unknown -> ()
              done;
              if !ok then begin
                verdicts.(off) <- Code;
                incr r_code;
                let tag = Source.tag_at r off in
                bump_fact tag;
                refined := (off, tag) :: !refined;
                (match Hashtbl.find_opt r.Source.insns s with
                | Some boundary -> Hashtbl.replace flipped_starts s boundary
                | None -> ())
              end
          | Source.Data ->
              let high_code = ref false in
              for i = 0 to n_sources - 1 do
                match claims.(i).(off) with
                | Source.Code _ -> if high.(i) then high_code := true
                | _ -> ()
              done;
              if not !high_code then begin
                verdicts.(off) <- Data;
                incr r_data;
                let tag = Source.tag_at r off in
                bump_fact tag;
                refined := (off, tag) :: !refined
              end
      done)
    refiners;
  let boundary_estimate =
    Array.fold_left (fun acc (s : Source.t) -> max acc (Hashtbl.length s.Source.insns)) 16 srcs
  in
  let insn_at = Hashtbl.create boundary_estimate in
  (* Boundary preference: earlier sources are lower priority (later
     replace); order the list lowest-priority first. *)
  List.iter
    (fun (s : Source.t) -> Hashtbl.iter (fun addr v -> Hashtbl.replace insn_at addr v) s.Source.insns)
    primaries;
  (* Boundaries of instructions a refiner flipped to code, where no
     primary already supplied one. *)
  Hashtbl.iter
    (fun addr v -> if not (Hashtbl.mem insn_at addr) then Hashtbl.replace insn_at addr v)
    flipped_starts;
  (* Drop boundaries that start inside bytes judged pure data. *)
  let doomed =
    Hashtbl.fold
      (fun addr _ acc ->
        let off = addr - base in
        if off < 0 || off >= len || verdicts.(off) = Data then addr :: acc else acc)
      insn_at []
  in
  List.iter (Hashtbl.remove insn_at) doomed;
  ignore binary;
  let tally =
    {
      case1_code = !c1_code;
      case1_data = !c1_data;
      case2_disagree = !c2;
      case3_contradict = !c3;
      case4_low_confidence = !c4;
      overlap_len_mismatch = overlap_count;
      refined_code = !r_code;
      refined_data = !r_data;
      refined_by_fact =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) fact_counts [] |> List.sort compare;
    }
  in
  {
    base;
    len;
    verdicts;
    insn_at;
    warnings = List.rev !warnings;
    tally;
    refined = List.sort compare !refined;
    pin_hints = [];
  }

let combine binary (lin : Linear.t) (rec_ : Recursive.t) =
  combine_sources binary [ Source.of_linear lin; Source.of_recursive rec_ ]

(* The aggregate of a traversal that left nothing to decide: Code exactly
   on the reached bytes, its instructions as the boundaries, Data
   elsewhere, every byte case 1.  Under [~infer:true] there is no
   ambiguous byte for a refiner to flip, so the inference pass reduces to
   one computed-target resolution round over these boundaries. *)
let of_recursive ?(infer = false) binary (rec_ : Recursive.t) =
  let len = rec_.Recursive.len in
  let verdicts = Array.make len Data in
  let code = ref 0 in
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        verdicts.(i) <- Code;
        incr code
      end)
    rec_.Recursive.cover;
  let insn_at = Hashtbl.copy rec_.Recursive.insns in
  {
    base = rec_.Recursive.base;
    len;
    verdicts;
    insn_at;
    warnings = [];
    tally = { tally_zero with case1_code = !code; case1_data = len - !code };
    refined = [];
    pin_hints = (if infer then Infer.resolve_pins binary ~insns:insn_at else []);
  }

let run ?(infer = false) binary =
  let lin = Obs.span "linear" (fun () -> Linear.sweep binary) in
  let rec_ = Obs.span "recursive" (fun () -> Recursive.traverse binary) in
  (* Neither sweep records overlapping instructions, so equal covers mean
     equal boundaries and decodes.  Every reached byte is then agreed code
     and every other byte failed to decode where the sweep stood on it,
     so no superset candidate starts outside the traversal: the superset
     source would claim Data on exactly the gaps, and combine would judge
     every byte case 1 with nothing left for a refiner. *)
  if lin.Linear.cover = rec_.Recursive.cover then begin
    Obs.count "disasm.validated" 1;
    Obs.span "validated" (fun () -> of_recursive ~infer binary rec_)
  end
  else begin
    let spec = Obs.span "superset" (fun () -> Superset.run binary ~avoid:rec_) in
    (* Priority (lowest first): linear, superset, recursive — so recursive
       boundaries win, with superset refining the regions it never reached.
       The inference refiner, when enabled, rides along as evidence only. *)
    let sources = [ Source.of_linear lin; spec; Source.of_recursive rec_ ] in
    if infer then begin
      let inf = Obs.span "infer" (fun () -> Infer.run binary ~avoid:rec_) in
      let agg =
        Obs.span "combine" (fun () -> combine_sources binary (sources @ [ inf.Infer.source ]))
      in
      { agg with pin_hints = inf.Infer.pin_hints }
    end
    else Obs.span "combine" (fun () -> combine_sources binary sources)
  end

let verdict_at t addr =
  if addr < t.base || addr >= t.base + t.len then None else Some t.verdicts.(addr - t.base)

let ambiguous_ranges t =
  let ranges = ref [] in
  let start = ref (-1) in
  for off = 0 to t.len - 1 do
    match (t.verdicts.(off), !start) with
    | Ambiguous, -1 -> start := off
    | Ambiguous, _ -> ()
    | _, -1 -> ()
    | _, s ->
        ranges := (t.base + s, t.base + off) :: !ranges;
        start := -1
  done;
  if !start >= 0 then ranges := (t.base + !start, t.base + t.len) :: !ranges;
  List.rev !ranges

let code_starts t =
  Hashtbl.fold (fun addr _ acc -> addr :: acc) t.insn_at [] |> List.sort compare

let stats t =
  let code = ref 0 and data = ref 0 and amb = ref 0 in
  Array.iter
    (function Code -> incr code | Data -> incr data | Ambiguous -> incr amb)
    t.verdicts;
  (!code, !data, !amb)
