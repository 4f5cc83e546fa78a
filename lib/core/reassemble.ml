module Db = Irdb.Db
module Rng = Zipr_util.Rng

type stats = {
  strategy : string;
  pins_total : int;
  pin_slots_long : int;
  pin_slots_short : int;
  pins_colocated : int;
  sleds : int;
  sled_entries : int;
  slot_expansions : int;
  chain_hops : int;
  dollops_placed : int;
  dollops_split : int;
  layouts_computed : int;
  layout_reuses : int;
  alloc_queries : int;
  alloc_hits : int;
  overflow_bytes : int;
  text_free_bytes : int;
  sled_bytes : int;
  page_misses : int;
  placement_cost : float;
  search_iterations : int;
  search_accepted : int;
  search_rejected : int;
  warnings : string list;
}

let zero_stats =
  {
    strategy = "";
    pins_total = 0;
    pin_slots_long = 0;
    pin_slots_short = 0;
    pins_colocated = 0;
    sleds = 0;
    sled_entries = 0;
    slot_expansions = 0;
    chain_hops = 0;
    dollops_placed = 0;
    dollops_split = 0;
    layouts_computed = 0;
    layout_reuses = 0;
    alloc_queries = 0;
    alloc_hits = 0;
    overflow_bytes = 0;
    text_free_bytes = 0;
    sled_bytes = 0;
    page_misses = 0;
    placement_cost = 0.0;
    search_iterations = 0;
    search_accepted = 0;
    search_rejected = 0;
    warnings = [];
  }

let merge_stats a b =
  {
    (* [""] (the merge identity) disappears; agreeing names survive a
       merge, so a homogeneous corpus aggregate still says which
       strategy produced it; anything else is honestly "mixed". *)
    strategy =
      (if a.strategy = "" then b.strategy
       else if b.strategy = "" || a.strategy = b.strategy then a.strategy
       else "mixed");
    pins_total = a.pins_total + b.pins_total;
    pin_slots_long = a.pin_slots_long + b.pin_slots_long;
    pin_slots_short = a.pin_slots_short + b.pin_slots_short;
    pins_colocated = a.pins_colocated + b.pins_colocated;
    sleds = a.sleds + b.sleds;
    sled_entries = a.sled_entries + b.sled_entries;
    slot_expansions = a.slot_expansions + b.slot_expansions;
    chain_hops = a.chain_hops + b.chain_hops;
    dollops_placed = a.dollops_placed + b.dollops_placed;
    dollops_split = a.dollops_split + b.dollops_split;
    layouts_computed = a.layouts_computed + b.layouts_computed;
    layout_reuses = a.layout_reuses + b.layout_reuses;
    alloc_queries = a.alloc_queries + b.alloc_queries;
    alloc_hits = a.alloc_hits + b.alloc_hits;
    overflow_bytes = a.overflow_bytes + b.overflow_bytes;
    text_free_bytes = a.text_free_bytes + b.text_free_bytes;
    sled_bytes = a.sled_bytes + b.sled_bytes;
    page_misses = a.page_misses + b.page_misses;
    placement_cost = a.placement_cost +. b.placement_cost;
    search_iterations = a.search_iterations + b.search_iterations;
    search_accepted = a.search_accepted + b.search_accepted;
    search_rejected = a.search_rejected + b.search_rejected;
    warnings = a.warnings @ b.warnings;
  }

(* The cost-model view of a finished run: the terms {!Cost.eval} folds
   are exactly these stats fields, so [placement_cost] is always the
   objective measured on the layout actually produced. *)
let cost_terms s =
  {
    Cost.sled_bytes = s.sled_bytes;
    chain_hops = s.chain_hops;
    relaxations = s.slot_expansions;
    overflow_bytes = s.overflow_bytes;
    page_misses = s.page_misses;
  }

exception Failure_ of string

let fail fmt = Format.kasprintf (fun s -> raise (Failure_ s)) fmt

(* A reference site: the address of an emitted jump opcode whose
   displacement still needs (or needed) resolution. *)
type site = {
  opcode_at : int;
  short : bool;  (* emission preference: try the 2-byte form first *)
  expandable : bool;  (* may grow 2 -> 5 bytes in place if room appears *)
  reserved_long : bool;  (* 5 bytes are reserved, so growing always works *)
  is_pin : bool;
  pin_addr : int;  (* the pinned address this slot serves; -1 otherwise *)
}

(* Per-run counter cells: one obs registry owns every reassembly counter
   (the [stats] record is read back out of it at the end of [run], and a
   trace sink absorbs it whole).  Atomic cells cost the same as the old
   plain mutable ints on this single-domain path and make the counters
   safe to aggregate across Domain workers. *)
type run_counters = {
  ctrs : Obs.Counters.t;
  c_pin_slots_long : Obs.Counters.cell;
  c_pin_slots_short : Obs.Counters.cell;
  c_pins_colocated : Obs.Counters.cell;
  c_sleds : Obs.Counters.cell;
  c_sled_entries : Obs.Counters.cell;
  c_slot_expansions : Obs.Counters.cell;
  c_chain_hops : Obs.Counters.cell;
  c_dollops_placed : Obs.Counters.cell;
  c_dollops_split : Obs.Counters.cell;
  c_layouts_computed : Obs.Counters.cell;
  c_layout_reuses : Obs.Counters.cell;
  c_placements : Obs.Counters.cell;  (* placement-strategy decisions taken *)
  c_sled_bytes : Obs.Counters.cell;  (* reserved sled footprint, bodies + slots *)
}

let make_run_counters () =
  let ctrs = Obs.Counters.create () in
  let c name = Obs.Counters.counter ctrs ("reassemble." ^ name) in
  {
    ctrs;
    c_pin_slots_long = c "pin_slots_long";
    c_pin_slots_short = c "pin_slots_short";
    c_pins_colocated = c "pins_colocated";
    c_sleds = c "sleds";
    c_sled_entries = c "sled_entries";
    c_slot_expansions = c "slot_expansions";
    c_chain_hops = c "chain_hops";
    c_dollops_placed = c "dollops_placed";
    c_dollops_split = c "dollops_split";
    c_layouts_computed = c "layouts_computed";
    c_layout_reuses = c "layout_reuses";
    c_placements = c "placement_decisions";
    c_sled_bytes = c "sled_bytes";
  }

(* A pin's reference slot.  [cancelled] is set when a colocated dollop
   covers the pin and its row lands on the pinned address: the reference
   then resolves natively, so drain must not patch the slot. *)
type pin_slot = { site : site; mutable cancelled : bool }

(* Row ids are dense (see {!Db.id_bound}) and reassembly adds no row, so
   the per-row tables are arrays indexed by id. *)
type state = {
  db : Db.t;
  buf : Codebuf.t;
  space : Memspace.t;
  m : int array;  (* row id -> home address, or [no_home] *)
  udr : (site * Db.insn_id) Queue.t;
  mutable pin_slots : pin_slot array;  (* ascending by pin address *)
  dcache : (Dollop.t * Dollop.placed_insn list * int) option array;
      (* head row -> built dollop and its layout, reusable while every
         row in it is still homeless *)
  rng : Rng.t;
  strategy : Placement.t;
  pinned_page : int -> bool;
  tally : Cost.tally;  (* per-run search accounting, surfaced in stats *)
  k : run_counters;
  mutable warnings : string list;
}

let warn st fmt = Format.kasprintf (fun s -> st.warnings <- s :: st.warnings) fmt

let short_jmp_opcode = Zvm.Encode.op_jmp_short
let near_jmp_opcode = Zvm.Encode.op_jmp_near

let no_home = -1

let has_home st id = st.m.(id) <> no_home

(* -- reference patching: expansion and chaining (paper II-C3) -- *)

let write_long_jump st ~at ~target =
  Codebuf.write8 st.buf at near_jmp_opcode;
  Codebuf.write32 st.buf (at + 1) ((target - (at + 5)) land 0xffffffff)

let rec patch st site target ~depth =
  if not site.short then
    Codebuf.write32 st.buf (site.opcode_at + 1)
      ((target - (site.opcode_at + 5)) land 0xffffffff)
  else begin
    let disp = target - (site.opcode_at + 2) in
    if disp >= -128 && disp <= 127 then begin
      Codebuf.write8 st.buf (site.opcode_at + 1) (disp land 0xff);
      (* Relaxation kept the reference short: give the 3 spare bytes of a
         long reservation back to the allocator (§III). *)
      if site.reserved_long then
        Memspace.release st.space ~lo:(site.opcode_at + 2) ~hi:(site.opcode_at + 5)
    end
    else if
      site.reserved_long
      || site.expandable
         && Memspace.is_free st.space ~lo:(site.opcode_at + 2) ~hi:(site.opcode_at + 5)
    then begin
      (* Expansion: the three bytes after the constrained slot are
         available, so relax it to an unconstrained 5-byte jump in
         place (§II-C3). *)
      if not site.reserved_long then
        Memspace.reserve st.space ~lo:(site.opcode_at + 2) ~hi:(site.opcode_at + 5);
      write_long_jump st ~at:site.opcode_at ~target;
      Obs.Counters.incr st.k.c_slot_expansions
    end
    else chain st site target ~depth
  end

and chain st site target ~depth =
  if depth <= 0 then
    fail "chaining depth exhausted resolving reference at 0x%x to 0x%x" site.opcode_at target;
  (* A hop must sit within short-branch range of the constrained site. *)
  let lo = site.opcode_at + 2 - 128 and hi = site.opcode_at + 2 + 127 + 5 in
  match Memspace.alloc_in_window st.space ~lo ~hi ~size:5 with
  | Some h ->
      write_long_jump st ~at:h ~target;
      Obs.Counters.incr st.k.c_chain_hops;
      patch st site h ~depth:(depth - 1)
  | None -> (
      match Memspace.alloc_in_window st.space ~lo ~hi:(hi - 3) ~size:2 with
      | Some h ->
          Codebuf.write8 st.buf h short_jmp_opcode;
          Obs.Counters.incr st.k.c_chain_hops;
          patch st site h ~depth:(depth - 1);
          (* The new short hop must itself reach the target. *)
          patch st
            { opcode_at = h; short = true; expandable = true; reserved_long = false; is_pin = false; pin_addr = -1 }
            target ~depth:(depth - 1)
      | None ->
          fail "no chain hop available near constrained reference at 0x%x" site.opcode_at)

let patch_or_enqueue st site tgt =
  let addr = st.m.(tgt) in
  if addr <> no_home then patch st site addr ~depth:16 else Queue.add (site, tgt) st.udr

(* -- dollop emission -- *)

let layout_counted st d =
  Obs.Counters.incr st.k.c_layouts_computed;
  Dollop.layout st.db d

(* Build the dollop headed at [rid] and lay it out, once: the result is
   threaded from the placement decision through emission, and cached so a
   row revisited across the drain loop (e.g. a failed colocation attempt
   followed by ordinary placement) does not pay for a second relaxation
   fixpoint.  A cached entry is valid only while every row in it is still
   homeless — homes only ever accrue, so a stale entry is simply rebuilt. *)
let build_and_layout st rid =
  match st.dcache.(rid) with
  | Some ((d, _, _) as entry)
    when List.for_all (fun id -> not (has_home st id)) d.Dollop.rows ->
      Obs.Counters.incr st.k.c_layout_reuses;
      entry
  | _ ->
      let d = Dollop.build st.db ~has_home:(has_home st) rid in
      let placed, total = layout_counted st d in
      let entry = (d, placed, total) in
      st.dcache.(rid) <- Some entry;
      entry

(* Emit a dollop at [start] from its precomputed layout; returns one past
   its last byte. *)
let emit_dollop st (d : Dollop.t) ~placed ~total start =
  let body_end = ref start in
  List.iter
    (fun (p : Dollop.placed_insn) ->
      let at = start + p.Dollop.offset in
      let r = Db.row st.db p.Dollop.row in
      st.m.(p.Dollop.row) <- at;
      let size = Zvm.Insn.size p.Dollop.form in
      (if p.Dollop.internal then
         (* Displacement already concrete within the dollop. *)
         ignore (Codebuf.write_insn st.buf at p.Dollop.form)
       else
         match p.Dollop.form with
         | Zvm.Insn.Jcc _ | Zvm.Insn.Jmp _ | Zvm.Insn.Call _ -> (
             match r.Db.target with
             | Some tgt ->
                 ignore (Codebuf.write_insn st.buf at p.Dollop.form);
                 patch_or_enqueue st
                   { opcode_at = at; short = false; expandable = false; reserved_long = false; is_pin = false; pin_addr = -1 }
                   tgt
             | None ->
                 (* A direct branch with no logical target is either dead
                    or malformed; emit a halt so failure is loud, not
                    silent. *)
                 warn st "row %d: direct branch without target link" p.Dollop.row;
                 Codebuf.write8 st.buf at 0xf4;
                 for i = 1 to size - 1 do
                   Codebuf.write8 st.buf (at + i) 0x90
                 done)
         | form -> ignore (Codebuf.write_insn st.buf at form));
      body_end := at + size)
    placed;
  (match d.Dollop.ending with
  | Dollop.Natural -> ()
  | Dollop.Connect tgt ->
      Codebuf.write8 st.buf !body_end near_jmp_opcode;
      patch_or_enqueue st
        { opcode_at = !body_end; short = false; expandable = false; reserved_long = false; is_pin = false; pin_addr = -1 }
        tgt);
  Obs.Counters.incr st.k.c_dollops_placed;
  start + total

(* Place the dollop [(d, placed, dsize)] containing [rid] somewhere, per
   the strategy, and return nothing: [st.m] gains homes for every row
   emitted.  The layout computed for the sizing decision is the one
   emitted — no second [Dollop.layout] pass. *)
let place_dollop st ~referent (d, placed, dsize) =
  let min_prefix =
    match d.Dollop.rows with
    | [] -> Dollop.connector_size
    | first :: _ ->
        Dollop.normalized_size (Db.row st.db first).Db.insn + Dollop.connector_size
  in
  let ctx =
    { Placement.space = st.space; rng = st.rng; pinned_page = st.pinned_page; tally = st.tally }
  in
  let emit_releasing d ~placed ~total addr reserved =
    let endp = emit_dollop st d ~placed ~total addr in
    if endp < addr + reserved then Memspace.release st.space ~lo:endp ~hi:(addr + reserved)
  in
  Obs.Counters.incr st.k.c_placements;
  match st.strategy.Placement.decide ctx { Placement.size = dsize; referent; min_prefix } with
  | Placement.Place_at addr -> emit_releasing d ~placed ~total:dsize addr dsize
  | Placement.Place_split { addr; capacity } -> (
      if capacity >= dsize then
        (* The fragment turned out big enough after all. *)
        emit_releasing d ~placed ~total:dsize addr capacity
      else
        match Dollop.split_to_fit st.db d ~capacity with
        | Some (prefix, rest_head) ->
            let pplaced, ptotal = layout_counted st prefix in
            emit_releasing prefix ~placed:pplaced ~total:ptotal addr capacity;
            Obs.Counters.incr st.k.c_dollops_split;
            (* The prefix's connector is about to demand the remainder, and
               we already know its shape: the split point cuts [d]'s
               fallthrough chain, so the rest is the suffix of [d.rows]
               with [d]'s original ending — rebuilding it from the IRDB
               would walk the same chain to the same stopping point (homes
               only accrue, and the drain-cache validity check rebuilds if
               any suffix row gains one first).  Cache it laid-out so the
               revisit is a [layout_reuses] hit instead of a second
               build-and-relax pass. *)
            let rec suffix_from = function
              | id :: _ as rows when id = rest_head -> rows
              | _ :: tl -> suffix_from tl
              | [] -> []
            in
            (match suffix_from d.Dollop.rows with
            | [] -> ()
            | rows ->
                let rest = { Dollop.rows; ending = d.Dollop.ending } in
                let rplaced, rtotal = layout_counted st rest in
                st.dcache.(rest_head) <- Some (rest, rplaced, rtotal))
        | None ->
            (* Could not split usefully; give the fragment back and spill. *)
            Memspace.release st.space ~lo:addr ~hi:(addr + capacity);
            let a = Memspace.alloc_overflow st.space ~size:dsize in
            emit_releasing d ~placed ~total:dsize a dsize)

(* -- sled dispatch synthesis (paper II-C2) -- *)

(* Dispatch discriminates entries on the top pushed word, falling back to
   the second word for top-collision groups (the planner guarantees such
   groups only contain entries of depth >= 2, so probing [sp+8] is safe).
   Stack layout on arrival: the sled's pushed words, topmost at [sp];
   dispatch saves r0, so the top word is at [sp+4].

   The code is generated through a tiny two-pass local assembler: items
   first, then label resolution, then emission.  Arrivals matching no pin
   halt loudly — only possible if the original program jumped somewhere
   the pin analysis never promised. *)
let synth_dispatch st (sled : Sled.t) =
  let open Zvm in
  let entries = sled.Sled.entries in
  (* Group by top word, preserving entry order.  Hashtbl-keyed reversed
     accumulators keep this linear in the entry count; the old
     assoc-list-with-rebuild version was quadratic and dominated sled
     synthesis on dense pin clusters. *)
  let groups =
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun e ->
        match e.Sled.words with
        | [] -> fail "sled entry at 0x%x pushes no words" e.Sled.pin_addr
        | top :: _ -> (
            match Hashtbl.find_opt tbl top with
            | Some cell -> cell := e :: !cell
            | None ->
                let cell = ref [ e ] in
                Hashtbl.add tbl top cell;
                order := top :: !order))
      entries;
    List.rev_map (fun top -> (top, List.rev !(Hashtbl.find tbl top))) !order
  in
  let handler_lbl e = Printf.sprintf "h%x" e.Sled.pin_addr in
  let sub_lbl top = Printf.sprintf "g%x" (top land 0xffffff) in
  (* Local assembly items. *)
  let items = ref [] in
  let emit_item it = items := it :: !items in
  let ins i = emit_item (`I i) in
  let jcc_to c l = emit_item (`Jcc (c, l)) in
  let lab l = emit_item (`Lab l) in
  let jmp_row r = emit_item (`Jmp_row r) in
  ins (Insn.Push Reg.R0);
  ins (Insn.Load { dst = Reg.R0; base = Reg.SP; disp = 4 });
  List.iter
    (fun (top, members) ->
      ins (Insn.Cmpi (Reg.R0, top));
      match members with
      | [ e ] -> jcc_to Cond.Eq (handler_lbl e)
      | _ -> jcc_to Cond.Eq (sub_lbl top))
    groups;
  ins Insn.Halt;
  List.iter
    (fun (top, members) ->
      match members with
      | [ _ ] -> ()
      | _ ->
          lab (sub_lbl top);
          ins (Insn.Load { dst = Reg.R0; base = Reg.SP; disp = 8 });
          List.iter
            (fun e ->
              (match e.Sled.words with
              | _ :: second :: _ -> ins (Insn.Cmpi (Reg.R0, second))
              | _ ->
                  fail "sled entry at 0x%x lacks a second discriminating word"
                    e.Sled.pin_addr);
              jcc_to Cond.Eq (handler_lbl e))
            members;
          ins Insn.Halt)
    groups;
  List.iter
    (fun e ->
      lab (handler_lbl e);
      ins (Insn.Pop Reg.R0);
      ins (Insn.Alui (Insn.Addi, Reg.SP, 4 * Sled.depth e));
      jmp_row e.Sled.row)
    entries;
  let items = List.rev !items in
  (* Pass 1: sizes and label offsets. *)
  let size_of = function
    | `I i -> Insn.size i
    | `Jcc _ -> 5
    | `Jmp_row _ -> 5
    | `Lab _ -> 0
  in
  let total = List.fold_left (fun acc it -> acc + size_of it) 0 items in
  let offsets = Hashtbl.create 16 in
  let () =
    let off = ref 0 in
    List.iter
      (fun it ->
        (match it with `Lab l -> Hashtbl.replace offsets l !off | _ -> ());
        off := !off + size_of it)
      items
  in
  (* Place and emit. *)
  let ctx =
    { Placement.space = st.space; rng = st.rng; pinned_page = st.pinned_page; tally = st.tally }
  in
  Obs.Counters.incr st.k.c_placements;
  let base =
    match
      st.strategy.Placement.decide ctx
        { Placement.size = total; referent = None; min_prefix = total }
    with
    | Placement.Place_at a -> a
    | Placement.Place_split { addr; capacity } ->
        if capacity >= total then begin
          Memspace.release st.space ~lo:(addr + total) ~hi:(addr + capacity);
          addr
        end
        else begin
          Memspace.release st.space ~lo:addr ~hi:(addr + capacity);
          Memspace.alloc_overflow st.space ~size:total
        end
  in
  let cur = ref base in
  List.iter
    (fun it ->
      (match it with
      | `I i -> ignore (Codebuf.write_insn st.buf !cur i)
      | `Lab _ -> ()
      | `Jcc (c, l) ->
          let target = base + Hashtbl.find offsets l in
          ignore (Codebuf.write_insn st.buf !cur (Insn.Jcc (c, Insn.Near, target - (!cur + 5))))
      | `Jmp_row r ->
          Codebuf.write8 st.buf !cur near_jmp_opcode;
          patch_or_enqueue st
            {
              opcode_at = !cur;
              short = false;
              expandable = false;
              reserved_long = false;
              is_pin = false;
              pin_addr = -1;
            }
            r);
      cur := !cur + size_of it)
    items;
  base

(* -- pin planning (paper II-C1/C2) -- *)

type plan_item = Slot of site * Db.insn_id | Sled_group of Sled.t

(* The pin prologue (CFI landing markers and the like) applies only to
   marked pins — addresses an indirect branch may actually target.
   Conservative pins (after-call sites and the like) keep bare slots. *)
let prologue_len_at st addr =
  if Db.pin_is_marked st.db addr then
    List.fold_left (fun acc i -> acc + Zvm.Insn.size i) 0 (Db.pin_prologue st.db)
  else 0

(* Emit the pin prologue at an address; returns the address just past it. *)
let emit_prologue st addr =
  if Db.pin_is_marked st.db addr then
    List.fold_left
      (fun at insn -> at + Codebuf.write_insn st.buf at insn)
      addr
      (Db.pin_prologue st.db)
  else addr

let plan_pins st pins text_hi =
  (* [pins]: ascending (addr, row), none fixed. *)
  let arr = Array.of_list pins in
  let n = Array.length arr in
  let items = ref [] in
  let i = ref 0 in
  while !i < n do
    let addr, row = arr.(!i) in
    let plen = prologue_len_at st addr in
    let next_gap = if !i + 1 < n then fst arr.(!i + 1) - addr else max_int in
    let gap = min next_gap (text_hi - addr) in
    (* A pin cramped only by the end of text (not by a neighbouring pin)
       may run its slot past [text_hi] when the bytes there are free:
       with contiguous overflow the text grows in place (the free map
       coalesces across the boundary), and with a detached overflow
       section the range is simply not free, so this never fires.
       Without the extension such a pin formed a one-pin "dense" group,
       which no sled can serve. *)
    let gap =
      if gap >= plen + 2 || next_gap < plen + 2 then gap
      else if
        next_gap >= plen + 5 && Memspace.is_free st.space ~lo:addr ~hi:(addr + plen + 5)
      then plen + 5
      else if Memspace.is_free st.space ~lo:addr ~hi:(addr + plen + 2) then plen + 2
      else gap
    in
    if gap >= plen + 2 then begin
      (* Reserve the unconstrained 5-byte form whenever the pin gap and
         free space allow; relaxation gives the spare bytes back if the
         reference stays short.  Only truly cramped pins get a bare 2-byte
         reservation (and may need chaining). *)
      let free w = Memspace.is_free st.space ~lo:addr ~hi:(addr + plen + w) in
      let width =
        if gap >= plen + 5 && free 5 then 5
        else if free 2 then 2
        else fail "pin slot at 0x%x collides with reserved bytes" addr
      in
      Memspace.reserve st.space ~lo:addr ~hi:(addr + plen + width);
      let jump_at = emit_prologue st addr in
      let prefer_short = st.strategy.Placement.prefer_short_pins || width = 2 in
      Codebuf.write8 st.buf jump_at (if prefer_short then short_jmp_opcode else near_jmp_opcode);
      if width = 5 then Obs.Counters.incr st.k.c_pin_slots_long
      else Obs.Counters.incr st.k.c_pin_slots_short;
      let site =
        {
          opcode_at = jump_at;
          short = prefer_short;
          expandable = true;
          reserved_long = width = 5;
          is_pin = true;
          pin_addr = addr;
        }
      in
      items := Slot (site, row) :: !items;
      incr i
    end
    else begin
      (* Dense: gather the sled group.  A later pin inside the sled's
         footprint must join it. *)
      let group = ref [ arr.(!i) ] in
      incr i;
      let continue = ref true in
      while !continue && !i < n do
        let last_pin = fst (List.hd !group) in
        if fst arr.(!i) < Sled.footprint_end ~last_pin then begin
          group := arr.(!i) :: !group;
          incr i
        end
        else continue := false
      done;
      let group = List.rev !group in
      (match group with
      | [ (a, _) ] ->
          (* Degenerate: a lone cramped pin (the extension above found no
             free bytes either).  No sled serves one pin; fail loudly
             rather than let [Sled.plan] raise [Invalid_argument]. *)
          fail "pin at 0x%x has no room for a reference slot" a
      | _ -> ());
      let sled =
        try Sled.plan ~pins:group
        with Sled.Infeasible msg -> fail "sled planning failed: %s" msg
      in
      let send = Sled.reserved_end sled in
      if send > text_hi then fail "sled at 0x%x runs past end of text" sled.Sled.start;
      if not (Memspace.is_free st.space ~lo:sled.Sled.start ~hi:send) then
        fail "sled at 0x%x collides with reserved bytes" sled.Sled.start;
      Memspace.reserve st.space ~lo:sled.Sled.start ~hi:send;
      Codebuf.write_bytes st.buf sled.Sled.start sled.Sled.body;
      Obs.Counters.bump st.k.c_sled_bytes (send - sled.Sled.start);
      Obs.Counters.incr st.k.c_sleds;
      Obs.Counters.bump st.k.c_sled_entries (List.length sled.Sled.entries);
      items := Sled_group sled :: !items
    end
  done;
  List.rev !items

(* -- main -- *)

(* Index of the first pin slot whose pinned address is at least [a]. *)
let first_pin_slot_from st a =
  let lo = ref 0 and hi = ref (Array.length st.pin_slots) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.pin_slots.(mid).site.pin_addr < a then lo := mid + 1 else hi := mid
  done;
  !lo

(* Cancellation belongs to a pin, never to an address.  Once a dollop
   covers a pin, the row emitted at the pinned address may itself be a
   direct branch, and its pending reference has that same address as its
   [opcode_at]; a skip keyed by address would drop that reference and
   leave its displacement 0. *)
let is_cancelled st site =
  site.is_pin && st.pin_slots.(first_pin_slot_from st site.pin_addr).cancelled

(* The bytes a pin's slot reserves: its prologue and its jump. *)
let slot_extent (s : site) = (s.opcode_at - s.pin_addr) + if s.reserved_long then 5 else 2

(* Apply [f] (reserve or release) to each pin slot's bytes. *)
let rec each_slot space f = function
  | [] -> ()
  | { site = s; _ } :: rest ->
      f space ~lo:s.pin_addr ~hi:(s.pin_addr + slot_extent s);
      each_slot space f rest

(* Colocation: place the pinned row's dollop at the pin itself, making the
   reference free.  When the pin prologue is empty, the dollop may even
   span {e other} pins, provided each covered pin's row lands at exactly
   its pinned address — the reference then resolves natively and its slot
   is cancelled.  This is how a Null-transformed, unfragmented function
   reassembles back onto its original bytes with zero overhead (the
   [B = P] ideal of §II-A2). *)
let try_colocate st site (d : Dollop.t) ~placed ~dsize =
  let pin_addr = site.pin_addr in
  let plen = site.opcode_at - pin_addr in
  let hi = pin_addr + plen + dsize in
  let body_lo = pin_addr + plen in
  (* The live slots of the pins inside the region, ascending. *)
  let covered =
    let rec from i acc =
      if i = Array.length st.pin_slots || st.pin_slots.(i).site.pin_addr >= hi then List.rev acc
      else
        let p = st.pin_slots.(i) in
        from (i + 1) (if p.cancelled then acc else p :: acc)
    in
    from (first_pin_slot_from st (pin_addr + 1)) []
  in
  (* A covered pin resolves natively only if its row lands at exactly its
     pinned address and it needs no prologue of its own.  The covered
     pins and the placed rows both ascend by address: one merge walk. *)
  let rec aligned covered (placed : Dollop.placed_insn list) =
    match (covered, placed) with
    | [], _ -> true
    | { site = s; _ } :: _, _ when s.opcode_at <> s.pin_addr -> false
    | _ :: _, [] -> false
    | { site = s; _ } :: crest, p :: prest ->
        let at = body_lo + p.Dollop.offset in
        if at < s.pin_addr then aligned covered prest
        else
          at = s.pin_addr
          && (Db.row st.db p.Dollop.row).Db.pinned = Some s.pin_addr
          && aligned crest prest
  in
  let emit () =
    let body_at = emit_prologue st pin_addr in
    assert (body_at = body_lo);
    ignore (emit_dollop st d ~placed ~total:dsize body_at);
    List.iter (fun p -> p.cancelled <- true) covered;
    Obs.Counters.bump st.k.c_pins_colocated (1 + List.length covered);
    true
  in
  if not (aligned covered placed) then false
  else begin
    (* The pin's own slot stays claimed.  [plan_pins] never runs a slot
       into the next pin, so every covered slot lies past it: give those
       back, then claim the rest of the region, or give back the slot's
       tail when the dollop is shorter than the slot. *)
    let slot_hi = pin_addr + slot_extent site in
    each_slot st.space Memspace.release covered;
    if hi <= slot_hi then begin
      if hi < slot_hi then Memspace.release st.space ~lo:hi ~hi:slot_hi;
      emit ()
    end
    else if Memspace.is_free st.space ~lo:slot_hi ~hi then begin
      Memspace.reserve st.space ~lo:slot_hi ~hi;
      emit ()
    end
    else begin
      each_slot st.space Memspace.reserve covered;
      false
    end
  end

let drain st =
  while not (Queue.is_empty st.udr) do
    let site, rid = Queue.pop st.udr in
    if not (is_cancelled st site) then
      if has_home st rid then patch st site st.m.(rid) ~depth:16
      else begin
        let d, placed, dsize = build_and_layout st rid in
        let colocated =
          st.strategy.Placement.colocate_at_pin && site.is_pin
          && try_colocate st site d ~placed ~dsize
        in
        if not colocated then begin
          let referent = if site.short then Some site.opcode_at else None in
          place_dollop st ~referent (d, placed, dsize);
          if has_home st rid then patch st site st.m.(rid) ~depth:16
          else fail "dollop placement failed to give row %d a home" rid
        end
      end
  done

let run ?(strategy = Placement.optimized) ?(seed = 1) (ir : Ir_construction.t) =
  let db = ir.Ir_construction.db in
  let binary = Db.orig db in
  let text = Zelf.Binary.text binary in
  let text_lo = text.Zelf.Section.vaddr in
  let text_hi = Zelf.Section.vend text in
  (* Prefer growing the text section in place: overflow goes directly
     after the original text when the gap to the next section allows,
     producing a single (larger) text section; otherwise a detached
     ".ztext" section is appended past everything. *)
  let next_section_start =
    List.fold_left
      (fun acc (s : Zelf.Section.t) ->
        if s.Zelf.Section.vaddr >= text_hi then
          Some (match acc with Some a -> min a s.Zelf.Section.vaddr | None -> s.Zelf.Section.vaddr)
        else acc)
      None binary.Zelf.Binary.sections
  in
  let overflow_base, overflow_cap, contiguous =
    match next_section_start with
    | Some ns when ns - text_hi >= 8192 -> (text_hi, ns - text_hi - 4096, true)
    | None -> (text_hi, 1 lsl 28, true)
    | Some _ -> (Db.next_free_vaddr db + 4096, 1 lsl 28, false)
  in
  let buf = Codebuf.create ~text_lo ~text_hi ~overflow_base in
  let space = Memspace.create ~overflow_cap ~text_lo ~text_hi ~overflow_base () in
  let pins_all = Db.pinned_addresses db in
  let pinned_pages = Hashtbl.create 16 in
  List.iter (fun (a, _) -> Hashtbl.replace pinned_pages (a / 4096) ()) pins_all;
  let st =
    {
      db;
      buf;
      space;
      m = Array.make (Db.id_bound db) no_home;
      udr = Queue.create ();
      pin_slots = [||];
      dcache = Array.make (Db.id_bound db) None;
      rng = Rng.create seed;
      strategy;
      pinned_page = (fun p -> Hashtbl.mem pinned_pages p);
      tally = Cost.make_tally ();
      k = make_run_counters ();
      warnings = [];
    }
  in
  (* 1. Ranges that keep their original bytes. *)
  let copy_range (lo, hi) =
    (match Zelf.Binary.read8 binary lo with
    | Some _ ->
        let data = Bytes.init (hi - lo) (fun i ->
            Char.chr (Option.value ~default:0 (Zelf.Binary.read8 binary (lo + i))))
        in
        Codebuf.write_bytes buf lo data
    | None -> ());
    Memspace.reserve space ~lo ~hi
  in
  Obs.span "copy_fixed" (fun () ->
      List.iter copy_range ir.Ir_construction.data_ranges;
      List.iter copy_range ir.Ir_construction.fixed_ranges;
      (* Fixed rows are pre-placed at their original addresses. *)
      Db.iter db (fun r ->
          if r.Db.fixed then
            match r.Db.orig_addr with Some a -> st.m.(r.Db.id) <- a | None -> ()));
  (* 2. Pin plan: slots and sleds. *)
  let movable_pins =
    List.filter (fun (_, id) -> not (Db.row db id).Db.fixed) pins_all
  in
  let items = Obs.span "pin_plan" (fun () -> plan_pins st movable_pins text_hi) in
  st.pin_slots <-
    Array.of_list
      (List.filter_map
         (function Slot (site, _) -> Some { site; cancelled = false } | Sled_group _ -> None)
         items);
  (* 3. Sled dispatch code, then seed the worklist with pin references. *)
  Obs.span "sled_dispatch" (fun () ->
      List.iter
        (function
          | Sled_group sled ->
              let dispatch = synth_dispatch st sled in
              Codebuf.write8 buf sled.Sled.jmp_at near_jmp_opcode;
              Codebuf.write32 buf (sled.Sled.jmp_at + 1)
                ((dispatch - (sled.Sled.jmp_at + 5)) land 0xffffffff)
          | Slot _ -> ())
        items);
  List.iter (function Slot (site, row) -> Queue.add (site, row) st.udr | Sled_group _ -> ()) items;
  (* 4. Drain uDR (paper II-C4). *)
  Obs.span "drain" (fun () -> drain st);
  (* 4b. Relocations in transform-added data: place any still-homeless
     targets, then patch the 32-bit cells with final addresses. *)
  let relocs = Db.relocs db in
  Obs.span "relocs" (fun () ->
      List.iter
        (fun (r : Db.reloc) ->
          if not (has_home st r.Db.reloc_target) then begin
            place_dollop st ~referent:None (build_and_layout st r.Db.reloc_target);
            drain st
          end)
        relocs);
  let patched_sections : (string, bytes) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (r : Db.reloc) ->
      let data =
        match Hashtbl.find_opt patched_sections r.Db.reloc_section with
        | Some d -> d
        | None -> (
            match
              List.find_opt
                (fun (s : Zelf.Section.t) -> s.Zelf.Section.name = r.Db.reloc_section)
                (Db.added_sections db)
            with
            | Some s ->
                let d = Bytes.copy s.Zelf.Section.data in
                Hashtbl.replace patched_sections r.Db.reloc_section d;
                d
            | None -> fail "reloc against unknown added section %S" r.Db.reloc_section)
      in
      if not (has_home st r.Db.reloc_target) then
        fail "reloc target row %d was never placed" r.Db.reloc_target;
      let addr = st.m.(r.Db.reloc_target) in
      if r.Db.reloc_offset + 4 > Bytes.length data then
        fail "reloc offset %d outside section %S" r.Db.reloc_offset r.Db.reloc_section;
      Bytes.set data r.Db.reloc_offset (Char.chr (addr land 0xff));
      Bytes.set data (r.Db.reloc_offset + 1) (Char.chr ((addr lsr 8) land 0xff));
      Bytes.set data (r.Db.reloc_offset + 2) (Char.chr ((addr lsr 16) land 0xff));
      Bytes.set data (r.Db.reloc_offset + 3) (Char.chr ((addr lsr 24) land 0xff)))
    relocs;
  let finalize_added (s : Zelf.Section.t) =
    match Hashtbl.find_opt patched_sections s.Zelf.Section.name with
    | Some data ->
        Zelf.Section.make ~name:s.Zelf.Section.name ~kind:s.Zelf.Section.kind
          ~vaddr:s.Zelf.Section.vaddr data
    | None -> s
  in
  (* 5. Assemble the output binary. *)
  let out =
    Obs.span "finalize" (fun () ->
        let new_text_data =
          if contiguous && Codebuf.overflow_used buf > 0 then
            Bytes.cat (Codebuf.text_image buf) (Codebuf.overflow_image buf)
          else Codebuf.text_image buf
        in
        let sections =
          List.map
            (fun (s : Zelf.Section.t) ->
              if s == text then
                Zelf.Section.make ~name:s.Zelf.Section.name ~kind:Zelf.Section.Text
                  ~vaddr:text_lo new_text_data
              else s)
            binary.Zelf.Binary.sections
        in
        let overflow_sections =
          if (not contiguous) && Codebuf.overflow_used buf > 0 then
            [ Zelf.Section.make ~name:".ztext" ~kind:Zelf.Section.Text ~vaddr:overflow_base
                (Codebuf.overflow_image buf) ]
          else []
        in
        Zelf.Binary.create ~entry:binary.Zelf.Binary.entry
          (sections @ overflow_sections @ List.map finalize_added (Db.added_sections db)))
  in
  let alloc = Memspace.counters space in
  let g n = Obs.Counters.get n in
  (* Page-locality term: text pages the layout put code on that hold no
     pin (pinned pages are resident regardless — §III), plus the pages
     the overflow spill occupies.  Measured from the final free map, not
     accumulated per decision, so it is exact whatever the strategy did. *)
  let page_misses =
    let misses = ref 0 in
    for p = text_lo / 4096 to (text_hi - 1) / 4096 do
      let lo = max text_lo (p * 4096) and hi = min text_hi ((p + 1) * 4096) in
      if (not (st.pinned_page p)) && not (Memspace.is_free space ~lo ~hi) then incr misses
    done;
    !misses + ((Codebuf.overflow_used buf + 4095) / 4096)
  in
  let stats =
    {
      strategy = strategy.Placement.name;
      pins_total = List.length pins_all;
      pin_slots_long = g st.k.c_pin_slots_long;
      pin_slots_short = g st.k.c_pin_slots_short;
      pins_colocated = g st.k.c_pins_colocated;
      sleds = g st.k.c_sleds;
      sled_entries = g st.k.c_sled_entries;
      slot_expansions = g st.k.c_slot_expansions;
      chain_hops = g st.k.c_chain_hops;
      dollops_placed = g st.k.c_dollops_placed;
      dollops_split = g st.k.c_dollops_split;
      layouts_computed = g st.k.c_layouts_computed;
      layout_reuses = g st.k.c_layout_reuses;
      alloc_queries = alloc.Memspace.queries;
      alloc_hits = alloc.Memspace.hits;
      overflow_bytes = Codebuf.overflow_used buf;
      text_free_bytes = Memspace.text_free_bytes space;
      sled_bytes = g st.k.c_sled_bytes;
      page_misses;
      placement_cost = 0.0;
      search_iterations = st.tally.Cost.iterations;
      search_accepted = st.tally.Cost.accepted;
      search_rejected = st.tally.Cost.rejected;
      warnings = List.rev st.warnings;
    }
  in
  (* Evaluate the strategy's own objective (default weights for the
     greedy strategies) over the finished layout's terms. *)
  let weights =
    Option.value strategy.Placement.weights ~default:Cost.default_weights
  in
  let stats = { stats with placement_cost = Cost.eval weights (cost_terms stats) } in
  if Obs.enabled () then begin
    Obs.merge_counters st.k.ctrs;
    Obs.merge_counters (Memspace.obs_counters space)
  end;
  (out, stats)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>placement=%s cost=%.1f@,pins=%d (long=%d short=%d colocated=%d)@,sleds=%d \
     entries=%d (%d bytes)@,expansions=%d chain-hops=%d@,dollops placed=%d split=%d@,\
     layouts=%d (reused %d)@,alloc queries=%d hits=%d@,overflow=%d bytes, text free=%d \
     bytes, page misses=%d@,search iterations=%d accepted=%d rejected=%d@,%d warnings@]"
    s.strategy s.placement_cost s.pins_total s.pin_slots_long s.pin_slots_short
    s.pins_colocated s.sleds s.sled_entries s.sled_bytes s.slot_expansions s.chain_hops
    s.dollops_placed s.dollops_split s.layouts_computed s.layout_reuses s.alloc_queries
    s.alloc_hits s.overflow_bytes s.text_free_bytes s.page_misses s.search_iterations
    s.search_accepted s.search_rejected (List.length s.warnings)
