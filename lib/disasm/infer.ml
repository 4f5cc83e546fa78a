(* Inference-based refiner source: a fact-propagation fixpoint over the
   superset decode, in the lineage of Datalog disassembly.

   The primary sources implement the paper's conservative case analysis,
   so every disagreement between linear sweep and recursive traversal
   becomes a pinned (fixed) range and, ultimately, file-size overhead.
   This pass produces additional per-byte evidence that the aggregation
   may use to {e refine} those ambiguous ranges — and only those: it
   abstains outright on every byte the recursive traversal reached, so
   by construction its verdicts can never contradict the one
   high-confidence primary, and the soundness of the whole [--infer]
   pipeline reduces to the soundness of the facts below (gated by the
   differential fuzzer over the adversarial corpus).

   Facts, each carried as a per-byte provenance tag:

   - [overlap-exclusion] — a byte covered by {e no} surviving candidate
     of the prune fixpoint cannot be executed without eventually running
     into undecodable bytes, so it is data.  This is what reclassifies
     dense data islands whose every speculative decode dies.
   - [data-word] — pointer-sized words the known code reads as data
     (jump-table storage, [Loada]/[Storea]/[Loadp]/[Storep] operands)
     that live inside the text section are data, not instructions.
   - [jump-table] — entries of a jump table dispatched by a {e known}
     (recursively reached) [Jmpt], scanned to the same 1024-entry bound
     the pin analysis uses, anchor code: the traversal only follows the
     first 256, so wide dispatch tables leave a reachable tail the
     primaries call ambiguous.  The pin analysis pins every entry, so
     relocating these bytes is sound.
   - [call-fallthrough] — a surviving candidate that is a direct call to
     a known function start is almost certainly real code, and execution
     returns to the byte after it: anchor the call and its fallthrough
     chain as code.
   - [computed-target] — the operand of a known [Jmpr]/[Callr] whose
     defining chain constant-folds from immediates and {e read-only}
     initialized memory (the classic xor-masked-pointer idiom) names its
     targets exactly.  Each resolved target is anchored as code and
     reported as a {e pin hint}: the run-time computation produces the
     original address, so the pin analysis must keep a landing there
     ([Ibt.Computed_target]) before the body may be relocated.
   - [unreachable-code] — when {e every} indirect site in the closed
     code set resolves (jump tables by bounded scan, returns by the
     after-call discipline the pin analysis already assumes,
     register-indirect branches by constant folding), reachability is
     closed under all control flow, so bytes outside the closure are
     provably never executed and are data.  This is the fact that
     reclassifies dead (never-referenced) functions; any unresolved site
     anywhere disables it for the whole binary.

   Code anchors are then propagated to a fixpoint: an anchored candidate
   claims its bytes, then extends along its fallthrough edge and its
   static branch target, stopping at claimed, avoided, or dead bytes.
   Newly claimed instructions are rescanned for jump tables, data words
   and indirect sites, so discovery iterates until no new code appears.
   Any conflict (a byte two facts disagree on) abstains rather than
   picking a side — and, when the conflicting anchor was one of the
   reachability-establishing facts (jump-table or computed-target),
   poisons the closure so [unreachable-code] never fires.  Every claim
   is monotone (Unknown -> Code/Data, never rewritten), so the worklist
   terminates within {!round_bound}. *)

type fact =
  | Call_fallthrough
  | Jump_table
  | Overlap_exclusion
  | Data_word
  | Computed_target
  | Unreachable

let fact_name = function
  | Call_fallthrough -> "call-fallthrough"
  | Jump_table -> "jump-table"
  | Overlap_exclusion -> "overlap-exclusion"
  | Data_word -> "data-word"
  | Computed_target -> "computed-target"
  | Unreachable -> "unreachable-code"

let all_facts =
  [ Call_fallthrough; Jump_table; Overlap_exclusion; Data_word; Computed_target; Unreachable ]

type t = {
  source : Source.t;
  rounds : int;
  fact_counts : (string * int) list;
  pin_hints : int list;
  closed : bool;
}

(* Worklist termination bound: the queue is deduplicated per
   (offset, fact), code-anchoring facts number three, and every
   successful claim enqueues at most two successors, so pops are bounded
   by 3*len (anchors) + 2*len (claim successors) plus slack.  Exposed so
   the test suite can pin the fixpoint's termination instead of trusting
   it. *)
let table_entry_bound = 1024

let round_bound binary =
  let text = Zelf.Binary.text binary in
  (6 * text.Zelf.Section.size) + table_entry_bound + 64

let falls_through insn = Zvm.Insn.has_fallthrough insn && insn <> Zvm.Insn.Sys 0

(* ---------- constant folding of indirect-branch operands ---------- *)

(* Abstract register values for the straight-line backward-chain
   evaluation.  [Bounded n] is a value in [0, n); [Scaled] is i*step for
   i in [0, count); [Ptr] adds a constant base (a table address);
   [Set] is an explicit small value set (the words of a bounded table
   read).  Everything else is [Top]. *)
type av =
  | Top
  | Const of int
  | Bounded of int
  | Scaled of int * int  (* count, step *)
  | Ptr of int * int * int  (* base, count, step *)
  | Set of int list

let max_fold_entries = table_entry_bound

let mask32 v = v land 0xffffffff

(* A 32-bit word that is guaranteed to hold its assembled value at run
   time: all four bytes inside one read-only initialized section.  Words
   in writable sections (or text, whose bytes the rewriter itself moves)
   never fold. *)
let readonly_word binary addr =
  match Zelf.Binary.section_at binary addr with
  | Some s
    when s.Zelf.Section.kind = Zelf.Section.Rodata && addr + 4 <= Zelf.Section.vend s ->
      Zelf.Binary.read32 binary addr
  | _ -> None

let eval_chain binary (chain : (int * (Zvm.Insn.t * int)) list) =
  let regs : (Zvm.Reg.t, av) Hashtbl.t = Hashtbl.create 8 in
  let get r = Option.value ~default:Top (Hashtbl.find_opt regs r) in
  let set r v = Hashtbl.replace regs r v in
  let open Zvm.Insn in
  List.iter
    (fun (addr, (insn, ilen)) ->
      match insn with
      | Movi (r, v) | Leaa (r, v) -> set r (Const (mask32 v))
      | Leap (r, disp) -> set r (Const (mask32 (addr + ilen + disp)))
      | Mov (rd, rs) -> set rd (get rs)
      | Loada (r, a) ->
          set r (match readonly_word binary a with Some v -> Const v | None -> Top)
      | Loadp (r, disp) ->
          set r
            (match readonly_word binary (addr + ilen + disp) with
            | Some v -> Const v
            | None -> Top)
      | Load8 { dst; _ } -> set dst (Bounded 256)
      | Load { dst; base; disp } ->
          set dst
            (match get base with
            | Const a -> (
                match readonly_word binary (a + disp) with Some v -> Const v | None -> Top)
            | Ptr (pbase, count, step) when count <= max_fold_entries ->
                let rec go i acc =
                  if i >= count then Some (List.rev acc)
                  else
                    match readonly_word binary (pbase + disp + (i * step)) with
                    | Some v -> go (i + 1) (v :: acc)
                    | None -> None
                in
                (match go 0 [] with
                | Some l -> Set (List.sort_uniq compare l)
                | None -> Top)
            | _ -> Top)
      | Alui (op, r, imm) ->
          let app v =
            match op with
            | Addi -> mask32 (v + imm)
            | Subi -> mask32 (v - imm)
            | Xori -> mask32 (v lxor imm)
            | Ori -> mask32 (v lor imm)
            | Andi -> v land imm
            | Muli -> mask32 (v * imm)
          in
          set r
            (match (get r, op) with
            | Const v, _ -> Const (app v)
            | Set l, _ -> Set (List.sort_uniq compare (List.map app l))
            | _, Andi when imm >= 0 && imm < max_fold_entries -> Bounded (imm + 1)
            | _ -> Top)
      | Shli (r, k) ->
          set r
            (match get r with
            | Const v -> Const (mask32 (v lsl k))
            | Bounded n when k <= 12 && n <= max_fold_entries -> Scaled (n, 1 lsl k)
            | _ -> Top)
      | Alu (op, rd, rs) ->
          set rd
            (match (op, get rd, get rs) with
            | Add, Const a, Const b -> Const (mask32 (a + b))
            | Sub, Const a, Const b -> Const (mask32 (a - b))
            | Xor, Const a, Const b -> Const (mask32 (a lxor b))
            | Or, Const a, Const b -> Const (a lor b)
            | And, Const a, Const b -> Const (a land b)
            | Add, Const b, Scaled (count, step) | Add, Scaled (count, step), Const b ->
                Ptr (b, count, step)
            | Mod, _, Const m when m > 0 && m <= max_fold_entries -> Bounded m
            | _ -> Top)
      | Shri (r, _) | Not r | Neg r | Pop r -> set r Top
      (* Calls and system calls may clobber anything. *)
      | Call _ | Callr _ | Jmpr _ | Jmpt _ | Sys _ -> Hashtbl.reset regs
      | Store _ | Store8 _ | Storea _ | Storep _ | Push _ | Pushi _ | Cmp _ | Cmpi _
      | Test _ | Jcc _ | Jmp _ | Ret | Halt | Nop | Land | Retland ->
          ())
    chain;
  get

let max_chain = 160

(* The straight-line defining chain of [site]: walk back through unique
   fallthrough predecessors in [insns], stopping at any join point
   (an address control flow can enter some other way), at a predecessor
   conflict, or at the cap.  Evaluation then starts from the chain head
   with every register Top, so any path that can actually reach the site
   is over-approximated. *)
let chain_for ~insns ~joins ~pred site =
  let rec back addr acc n =
    if n >= max_chain || Hashtbl.mem joins addr then acc
    else
      match Hashtbl.find_opt pred addr with
      | Some p when p >= 0 -> (
          match Hashtbl.find_opt insns p with
          | Some v -> back p ((p, v) :: acc) (n + 1)
          | None -> acc)
      | _ -> acc
  in
  back site [] 0

let scan_table binary ~lo ~hi table =
  let rec go i acc =
    if i >= table_entry_bound then List.rev acc
    else
      match Zelf.Binary.read32 binary (table + (i * 4)) with
      | Some v when v >= lo && v < hi -> go (i + 1) ((table + (i * 4), v) :: acc)
      | _ -> List.rev acc
  in
  go 0 []

(* Shared resolver state over a (possibly growing) instruction map:
   join points are targets the rest of the program can reach directly —
   static branch targets, bounded jump-table entries, the program entry,
   every address-constant the data scan sees, and (added as they are
   discovered) resolved computed targets. *)
let build_joins binary ~insns ~lo ~hi =
  let joins : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add a = Hashtbl.replace joins a () in
  add binary.Zelf.Binary.entry;
  List.iter add (Recursive.scan_for_text_addresses binary);
  Hashtbl.iter
    (fun addr (insn, _) ->
      (match Zvm.Insn.static_target ~at:addr insn with Some t -> add t | None -> ());
      match insn with
      | Zvm.Insn.Jmpt (_, table) ->
          List.iter (fun (_, entry) -> add entry) (scan_table binary ~lo ~hi table)
      | _ -> ())
    insns;
  joins

let build_pred ~insns =
  let pred : (int, int) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun addr (insn, ilen) ->
      if falls_through insn then
        match Hashtbl.find_opt pred (addr + ilen) with
        | None -> Hashtbl.replace pred (addr + ilen) addr
        | Some p when p = addr -> ()
        | Some _ -> Hashtbl.replace pred (addr + ilen) (-1) (* ambiguous: stop there *))
    insns;
  pred

(* Resolve one register-indirect site.  Accepting a resolution requires
   every in-text target to be either a join already (so no defining
   chain, this one included, runs through it) or not yet a known
   instruction start (brand-new code, which is immediately added to the
   join set) — otherwise control could enter the middle of a chain the
   evaluation assumed straight-line, and the site stays unresolved. *)
let resolve_site binary ~insns ~joins ~pred ~lo ~hi site reg =
  let chain = chain_for ~insns ~joins ~pred site in
  let get = eval_chain binary chain in
  let accept targets =
    let in_text = List.filter (fun v -> v >= lo && v < hi) targets in
    if
      List.for_all
        (fun v -> Hashtbl.mem joins v || not (Hashtbl.mem insns v))
        in_text
    then begin
      List.iter (fun v -> Hashtbl.replace joins v ()) in_text;
      Some in_text
    end
    else None
  in
  match get reg with
  | Const v -> accept [ mask32 v ]
  | Set l -> accept (List.map mask32 l)
  | _ -> None

(* Resolved in-text targets of every register-indirect site in a
   {e validated} instruction map (no ambiguity anywhere), sorted:
   [Aggregate.of_recursive] uses this to reproduce the pin hints the full
   inference pass derives, which on validated binaries performs exactly
   this one resolution round. *)
let resolve_pins binary ~insns =
  let text = Zelf.Binary.text binary in
  let lo = text.Zelf.Section.vaddr and hi = Zelf.Section.vend text in
  let joins = build_joins binary ~insns ~lo ~hi in
  let pred = build_pred ~insns in
  let sites =
    Hashtbl.fold
      (fun addr (insn, _) acc ->
        match insn with
        | Zvm.Insn.Jmpr r | Zvm.Insn.Callr r -> (addr, r) :: acc
        | _ -> acc)
      insns []
    |> List.sort compare
  in
  List.concat_map
    (fun (site, reg) ->
      match resolve_site binary ~insns ~joins ~pred ~lo ~hi site reg with
      | Some targets -> targets
      | None -> [])
    sites
  |> List.sort_uniq compare

(* ---------- the inference pass ---------- *)

let run binary ~(avoid : Recursive.t) =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let len = text.Zelf.Section.size in
  let lo = base and hi = base + len in
  let candidates = Superset.decode_all binary in
  let alive = Superset.prune binary candidates in
  let claims = Array.make len Source.Unknown in
  let tags = Array.make len "" in
  let insns : (int, Zvm.Insn.t * int) Hashtbl.t = Hashtbl.create 64 in
  let counts = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace counts (fact_name f) 0) all_facts;
  let bump fact n =
    let k = fact_name fact in
    Hashtbl.replace counts k (Hashtbl.find counts k + n)
  in
  let avoided off = Recursive.reached avoid (base + off) in
  (* Closure flag for [unreachable-code]: true while every indirect site
     resolves and every reachability-establishing claim lands cleanly. *)
  let closed = ref true in
  let pin_hints = ref [] in
  (* -- overlap-conflict exclusion: bytes no surviving candidate covers -- *)
  let covered = Array.make len false in
  for off = 0 to len - 1 do
    if alive.(off) then
      match candidates.(off) with
      | Some (_, ilen) ->
          for i = off to min (len - 1) (off + ilen - 1) do
            covered.(i) <- true
          done
      | None -> ()
  done;
  let claim_data off fact =
    if off >= 0 && off < len && (not (avoided off)) && claims.(off) = Source.Unknown
    then begin
      claims.(off) <- Source.Data;
      tags.(off) <- fact_name fact;
      bump fact 1
    end
  in
  for off = 0 to len - 1 do
    if not covered.(off) then claim_data off Overlap_exclusion
  done;
  (* -- worklist of code anchors, deduplicated per (offset, fact) -- *)
  let work = Queue.create () in
  let seen : (int * fact, unit) Hashtbl.t = Hashtbl.create 256 in
  let enqueue off fact =
    if not (Hashtbl.mem seen (off, fact)) then begin
      Hashtbl.replace seen (off, fact) ();
      Queue.add (off, fact) work
    end
  in
  let rounds = ref 0 in
  (* The growing known-code map: the traversal's instructions plus every
     instruction the propagation claims.  Fact scans and site resolution
     iterate over it to a fixpoint. *)
  let known : (int, Zvm.Insn.t * int) Hashtbl.t = Hashtbl.copy avoid.Recursive.insns in
  let newly_known = ref [] in
  let claim_word addr =
    if addr >= lo && addr + 4 <= hi then
      for i = addr - base to addr - base + 3 do
        claim_data i Data_word
      done
  in
  (* Scan a batch of known instructions for jump tables and data words. *)
  let scan_facts batch =
    List.iter
      (fun (addr, (insn, ilen)) ->
        match insn with
        | Zvm.Insn.Jmpt (_, table) ->
            List.iter
              (fun (word_addr, entry) ->
                claim_word word_addr;
                enqueue (entry - base) Jump_table)
              (scan_table binary ~lo ~hi table)
        | Zvm.Insn.Loada (_, a) | Zvm.Insn.Storea (a, _) -> claim_word a
        | Zvm.Insn.Loadp (_, disp) | Zvm.Insn.Storep (disp, _) ->
            claim_word (addr + ilen + disp)
        | _ -> ())
      batch
  in
  (* Drain the propagation worklist: claim anchored candidates and extend
     along fallthrough edges and static targets.  Reachability-
     establishing facts that fail to land poison the closure. *)
  let drain () =
    while not (Queue.is_empty work) do
      incr rounds;
      let off, fact = Queue.pop work in
      let reach = fact = Jump_table || fact = Computed_target in
      if off >= 0 && off < len then begin
        if avoided off then begin
          if reach && not (Hashtbl.mem avoid.Recursive.insns (base + off)) then
            closed := false
        end
        else
          match claims.(off) with
          | Source.Code s -> if reach && s <> base + off then closed := false
          | Source.Data -> if reach then closed := false
          | Source.Unknown -> (
              if not alive.(off) then begin if reach then closed := false end
              else
                match candidates.(off) with
                | None -> if reach then closed := false
                | Some (insn, ilen) ->
                    let clash = ref (off + ilen > len) in
                    for i = off to min (len - 1) (off + ilen - 1) do
                      if claims.(i) <> Source.Unknown || avoided i then clash := true
                    done;
                    if !clash then begin if reach then closed := false end
                    else begin
                      for i = off to off + ilen - 1 do
                        claims.(i) <- Source.Code (base + off);
                        tags.(i) <- fact_name fact
                      done;
                      bump fact ilen;
                      Hashtbl.replace insns (base + off) (insn, ilen);
                      Hashtbl.replace known (base + off) (insn, ilen);
                      newly_known := (base + off, (insn, ilen)) :: !newly_known;
                      if falls_through insn then enqueue (off + ilen) fact;
                      match Zvm.Insn.static_target ~at:(base + off) insn with
                      | Some tgt when tgt >= lo && tgt < hi -> enqueue (tgt - base) fact
                      | _ -> ()
                    end)
      end
    done
  in
  (* -- post-call fallthrough liveness: surviving calls to traversal-known
        function starts anchor themselves (and, via propagation, the
        return site after them) as code -- *)
  for off = 0 to len - 1 do
    if alive.(off) && not (avoided off) then
      match candidates.(off) with
      | Some ((Zvm.Insn.Call _ as insn), _) -> (
          match Zvm.Insn.static_target ~at:(base + off) insn with
          | Some tgt when Hashtbl.mem avoid.Recursive.insns tgt ->
              enqueue off Call_fallthrough
          | _ -> ())
      | _ -> ()
  done;
  (* -- discovery fixpoint: scan facts and resolve indirect sites over
        the growing known map until no new code appears -- *)
  let processed_sites : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let batch =
    ref
      (Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) avoid.Recursive.insns []
      |> List.sort compare)
  in
  let iterations = ref 0 in
  while !batch <> [] && !iterations < 64 do
    incr iterations;
    scan_facts !batch;
    let joins = build_joins binary ~insns:known ~lo ~hi in
    List.iter (fun t -> Hashtbl.replace joins t ()) !pin_hints;
    let pred = build_pred ~insns:known in
    let sites =
      List.filter_map
        (fun (addr, (insn, _)) ->
          match insn with
          | Zvm.Insn.Jmpr r | Zvm.Insn.Callr r
            when not (Hashtbl.mem processed_sites addr) ->
              Some (addr, r)
          | _ -> None)
        !batch
      |> List.sort compare
    in
    List.iter
      (fun (site, reg) ->
        Hashtbl.replace processed_sites site ();
        match resolve_site binary ~insns:known ~joins ~pred ~lo ~hi site reg with
        | Some targets ->
            pin_hints := targets @ !pin_hints;
            List.iter (fun t -> enqueue (t - base) Computed_target) targets
        | None -> closed := false)
      sites;
    newly_known := [];
    drain ();
    batch := List.sort compare !newly_known
  done;
  if !batch <> [] then closed := false;
  (* -- unreachable-code exclusion: with the closure intact, every byte
        outside it is provably never executed -- *)
  if !closed then
    for off = 0 to len - 1 do
      if (not (avoided off)) && claims.(off) = Source.Unknown then begin
        claims.(off) <- Source.Data;
        tags.(off) <- fact_name Unreachable;
        bump Unreachable 1
      end
    done;
  let source =
    {
      Source.name = "infer";
      base;
      len;
      claims;
      insns;
      confidence = Source.High;
      kind = Source.Refiner;
      tags;
    }
  in
  let fact_counts =
    List.map (fun f -> (fact_name f, Hashtbl.find counts (fact_name f))) all_facts
  in
  {
    source;
    rounds = !rounds;
    fact_counts;
    pin_hints = List.sort_uniq compare !pin_hints;
    closed = !closed;
  }
