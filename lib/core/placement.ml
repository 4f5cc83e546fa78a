type ctx = {
  space : Memspace.t;
  rng : Zipr_util.Rng.t;
  pinned_page : int -> bool;
  tally : Cost.tally;
}

type request = { size : int; referent : int option; min_prefix : int }

type decision = Place_at of int | Place_split of { addr : int; capacity : int }

type t = {
  name : string;
  decide : ctx -> request -> decision;
  colocate_at_pin : bool;
  prefer_short_pins : bool;
  weights : Cost.weights option;
}

let naive =
  {
    name = "naive";
    decide = (fun ctx req -> Place_at (Memspace.alloc_first ctx.space ~size:req.size));
    colocate_at_pin = false;
    prefer_short_pins = false;
    weights = None;
  }

let page_size = 4096

(* Smallest fragment the optimized layout will split a dollop into. *)
let min_split_capacity = 64

(* First free text gap whose leading pinned-page portion holds [size]
   bytes.  Scans gaps in ascending order and stops at the first match —
   no gap list is materialized.  A gap narrower than [size] cannot hold
   such a portion, so the walk skips those gaps, and every subtree of
   them, without visiting it. *)
let first_pinned_page_gap ctx ~size =
  Memspace.find_text_gap ctx.space ~min_width:size ~f:(fun glo ghi ->
      (* Clip the gap to its pinned-page portions; take the first such
         portion big enough to be useful. *)
      let rec first_pinned_run a =
        if a >= ghi then None
        else
          let page = a / page_size in
          if ctx.pinned_page page then Some (a, min ghi ((page + 1) * page_size))
          else first_pinned_run ((page + 1) * page_size)
      in
      match first_pinned_run glo with
      | Some (lo, hi) when hi - lo >= size -> Some lo
      | _ -> None)

let optimized =
  let decide ctx req =
    (* 1. Within short-jump range of the referent, so the 2-byte reference
       survives relaxation. *)
    let near_referent () =
      match req.referent with
      | None -> None
      | Some site ->
          (* The short jump's displacement is relative to site+2. *)
          Memspace.alloc_in_window ctx.space ~lo:(site + 2 - 128) ~hi:(site + 2 + 127 + req.size)
            ~size:req.size
    in
    (* 2. A gap on a page that already contains pinned addresses. *)
    let on_pinned_page () =
      match first_pinned_page_gap ctx ~size:req.size with
      | Some lo -> Memspace.alloc_in_window ctx.space ~lo ~hi:(lo + req.size) ~size:req.size
      | None -> None
    in
    (* 3. Anywhere in the original text span. *)
    let in_text () = Memspace.alloc_text_first ctx.space ~size:req.size in
    (* 4. Split to fill the largest text fragment rather than spill whole.
       Fragments below [min_split_capacity] are not worth a 5-byte
       connector per piece and are left unused — which is exactly the
       pathological behaviour the paper reports when a CB's pinned
       addresses shatter the address space into small fragments under
       large dollops (§IV-B, the Figure-6 outlier). *)
    let split () =
      match Memspace.largest_text_gap ctx.space with
      | Some (lo, hi) when hi - lo >= max req.min_prefix min_split_capacity ->
          let capacity = hi - lo in
          (match Memspace.alloc_in_window ctx.space ~lo ~hi ~size:capacity with
          | Some addr -> Some (Place_split { addr; capacity })
          | None -> None)
      | _ -> None
    in
    (* Which tier won is the shape of the layout; tally it so a trace
       shows the near/pinned/text/split/overflow mix per run. *)
    match near_referent () with
    | Some a ->
        Obs.count "placement.near_referent" 1;
        Place_at a
    | None -> (
        match on_pinned_page () with
        | Some a ->
            Obs.count "placement.pinned_page" 1;
            Place_at a
        | None -> (
            match in_text () with
            | Some a ->
                Obs.count "placement.text" 1;
                Place_at a
            | None -> (
                match split () with
                | Some d ->
                    Obs.count "placement.split" 1;
                    d
                | None ->
                    Obs.count "placement.overflow" 1;
                    Place_at (Memspace.alloc_overflow ctx.space ~size:req.size))))
  in
  {
    name = "optimized";
    decide;
    colocate_at_pin = true;
    prefer_short_pins = true;
    weights = None;
  }

let random =
  let decide ctx req =
    match Memspace.alloc_random_text ctx.space ~rng:ctx.rng ~size:req.size with
    | Some a -> Place_at a
    | None -> Place_at (Memspace.alloc_overflow ctx.space ~size:req.size)
  in
  {
    name = "random";
    decide;
    colocate_at_pin = false;
    prefer_short_pins = false;
    weights = None;
  }

(* -- search: beam / simulated-annealing over an explicit cost model -- *)

type search_knobs = {
  weights : Cost.weights;
  budget : int;
  beam : int;
  anneal_gaps : int;
  epsilon : float;
}

let default_search_knobs =
  { weights = Cost.default_weights; budget = 16; beam = 4; anneal_gaps = 96; epsilon = 0.0 }

(* A candidate decision, not yet committed: [Whole] reserves [req.size]
   at [addr]; [Split] reserves the whole fragment.  [gap] carries the
   free interval the candidate sits in when the enumerator knows it
   (text-gap probes do), sparing the lookahead a containment query. *)
type cand = { addr : int; split_capacity : int option; gap : (int * int) option }

let whole ?gap addr = { addr; split_capacity = None; gap }

(* Immediate cost a candidate adds, from the decision alone: does the
   referent's 2-byte slot survive, does the dollop spill past text, does
   a split buy a connector hop, which touched pages hold no pin. *)
let immediate_cost (w : Cost.weights) ctx req ~overflow_base c =
  let size = match c.split_capacity with Some cap -> cap | None -> req.size in
  let relax =
    match req.referent with
    | Some site ->
        let disp = c.addr - (site + 2) in
        if disp >= -128 && disp <= 127 then 0.0 else w.Cost.w_relaxations
    | None -> 0.0
  in
  let overflow =
    if c.addr >= overflow_base then w.Cost.w_overflow_bytes *. float_of_int size else 0.0
  in
  let split = match c.split_capacity with Some _ -> w.Cost.w_chain_hops | None -> 0.0 in
  let pages =
    let p0 = c.addr / page_size and p1 = (c.addr + size - 1) / page_size in
    let misses = ref 0 in
    for p = p0 to p1 do
      if not (ctx.pinned_page p) then incr misses
    done;
    w.Cost.w_page_misses *. float_of_int !misses
  in
  relax +. overflow +. split +. pages

(* Lookahead: slivers a candidate would shave off its gap.  A leftover
   below [dead_sliver] on either side is dead space — too small to hold
   even a tiny dollop plus its connector — and dead text bytes push
   future code to overflow one-for-one, so they are charged at the
   overflow rate.  (Larger leftovers are NOT waste: they still admit
   whole placements of small dollops, which most dollops are.)  This is
   the term that turns first-fit into best-fit: among gaps that all
   fit, the one leaving no unusable sliver wins. *)
let dead_sliver = 8

(* The best-fit pressure: leftover bytes big enough to stay useful are
   still charged a whisper (half a byte per KiB), so among gaps that all
   fit, the tightest wins.  Kept strictly below [w_relaxations] for any
   plausible gap so tightness never outbids keeping a reference short —
   it only orders otherwise-tied choices, which is what stops a random
   walk from shaving medium pieces off the large gaps that later large
   dollops will need. *)
let tightness = 1.0 /. 2048.0

let waste_cost (w : Cost.weights) ctx ~overflow_base req c =
  match c.split_capacity with
  | Some _ -> 0.0 (* a split consumes its fragment exactly *)
  | None ->
      if c.addr >= overflow_base then 0.0
      else
        let gap =
          match c.gap with Some g -> Some g | None -> Memspace.free_gap_at ctx.space c.addr
        in
        (match gap with
        | None -> 0.0
        | Some (glo, ghi) ->
            let left = c.addr - glo and right = ghi - (c.addr + req.size) in
            let sliver x = if x > 0 && x < dead_sliver then x else 0 in
            let usable x = if x >= dead_sliver then x else 0 in
            (w.Cost.w_overflow_bytes *. float_of_int (sliver left + sliver right))
            +. (tightness *. float_of_int (usable left + usable right)))

let full_cost w ctx ~overflow_base req c =
  immediate_cost w ctx req ~overflow_base c +. waste_cost w ctx ~overflow_base req c

let commit ctx req c =
  match c.split_capacity with
  | None ->
      ignore (Memspace.take_at ctx.space ~addr:c.addr ~size:req.size);
      Place_at c.addr
  | Some capacity ->
      ignore (Memspace.take_at ctx.space ~addr:c.addr ~size:capacity);
      Place_split { addr = c.addr; capacity }

(* The split candidate: fill the largest text fragment instead of
   spilling whole.  Unlike the optimized tier's [min_split_capacity]
   floor, any fragment that can hold a useful prefix ([min_prefix]:
   first instruction + connector) is offered — the cost model already
   charges [w_chain_hops] per split, so small fragments are used exactly
   when the connector is cheaper than the overflow bytes it saves.
   This is where search beats the greedy allocator on shattered address
   spaces: the 8-63 byte fragments optimized writes off as unusable.
   Only meaningful when the fragment is genuinely smaller than the
   dollop (otherwise a whole candidate covers it). *)
let split_cand req space =
  match Memspace.largest_text_gap space with
  | Some (lo, hi) when hi - lo >= req.min_prefix && hi - lo < req.size ->
      Some { addr = lo; split_capacity = Some (hi - lo); gap = Some (lo, hi) }
  | _ -> None

(* Enumeration + two-stage beam: stage 1 ranks every candidate by its
   immediate cost (cheap, no extra tree queries); the [beam] survivors
   are re-scored with the fragmentation lookahead and the minimum wins.
   With [epsilon > 0] the final pick diversifies uniformly over the
   beam with that probability — the diversity-vs-overhead dial. *)
let search_beam knobs ctx req ~overflow_base =
  let w = knobs.weights in
  let space = ctx.space in
  let near =
    match req.referent with
    | None -> None
    | Some site ->
        Memspace.probe_in_window space ~lo:(site + 2 - 128) ~hi:(site + 2 + 127 + req.size)
          ~size:req.size
        |> Option.map (fun a -> whole a)
  in
  let pinned = Option.map (fun a -> whole a) (first_pinned_page_gap ctx ~size:req.size) in
  let text =
    List.map
      (fun (glo, ghi) -> whole ~gap:(glo, ghi) glo)
      (Memspace.probe_text_fits space ~size:req.size ~budget:knobs.budget)
  in
  let split = split_cand req space in
  let spill = whole (Memspace.probe_overflow space ~size:req.size) in
  let cands =
    List.filter_map Fun.id [ near; pinned ] @ text @ Option.to_list split @ [ spill ]
  in
  ctx.tally.Cost.iterations <- ctx.tally.Cost.iterations + List.length cands;
  (* Stage 1 is the free part of the score: immediate cost, plus the
     fragmentation lookahead for candidates that carry their gap (the
     text probes do — no tree query needed).  Stage 2 completes the
     beam's survivors with the lookahead that does cost a query
     ([free_gap_at] for near/pinned candidates). *)
  let scored =
    List.map
      (fun c ->
        let s = immediate_cost w ctx req ~overflow_base c in
        let s = if c.gap = None then s else s +. waste_cost w ctx ~overflow_base req c in
        (s, c))
      cands
    |> List.stable_sort (fun (sa, ca) (sb, cb) ->
           match Float.compare sa sb with 0 -> compare ca.addr cb.addr | n -> n)
  in
  let beam = List.filteri (fun i _ -> i < max 1 knobs.beam) scored in
  let rescored =
    List.map
      (fun (s, c) ->
        if c.gap = None then (s +. waste_cost w ctx ~overflow_base req c, c) else (s, c))
      beam
  in
  let best =
    List.fold_left
      (fun acc (s, c) ->
        match acc with
        | None -> Some (s, c)
        | Some (bs, bc) ->
            if s < bs || (s = bs && c.addr < bc.addr) then begin
              ctx.tally.Cost.accepted <- ctx.tally.Cost.accepted + 1;
              Some (s, c)
            end
            else begin
              ctx.tally.Cost.rejected <- ctx.tally.Cost.rejected + 1;
              Some (bs, bc)
            end)
      None rescored
  in
  let _, chosen = Option.get best in
  let chosen =
    if knobs.epsilon > 0.0 && Zipr_util.Rng.chance ctx.rng knobs.epsilon then
      snd (List.nth rescored (Zipr_util.Rng.int ctx.rng (List.length rescored)))
    else chosen
  in
  chosen

(* Annealing fallback for shattered address spaces: when the text span
   holds more gaps than enumeration should scan per decision, sample
   random fitting gaps from the deterministic per-run stream and walk
   them under a geometric temperature schedule.  The walk may move
   uphill (escaping first-fit-shaped local minima); the best candidate
   ever seen is what gets committed. *)
let anneal_t0 = 32.0
let anneal_decay = 0.85

let search_anneal knobs ctx req ~overflow_base =
  let w = knobs.weights in
  let space = ctx.space in
  let score c = full_cost w ctx ~overflow_base req c in
  let seeds =
    let near =
      match req.referent with
      | None -> None
      | Some site ->
          Memspace.probe_in_window space ~lo:(site + 2 - 128) ~hi:(site + 2 + 127 + req.size)
            ~size:req.size
          |> Option.map (fun a -> whole a)
    in
    let pinned = Option.map (fun a -> whole a) (first_pinned_page_gap ctx ~size:req.size) in
    let spill = whole (Memspace.probe_overflow space ~size:req.size) in
    List.filter_map Fun.id [ near; pinned ] @ [ spill ]
  in
  let scored_seeds = List.map (fun c -> (score c, c)) seeds in
  ctx.tally.Cost.iterations <- ctx.tally.Cost.iterations + List.length seeds;
  let best =
    List.fold_left (fun (bs, bc) (s, c) -> if s < bs then (s, c) else (bs, bc))
      (List.hd scored_seeds) (List.tl scored_seeds)
  in
  let cur = ref best and best = ref best in
  let temp = ref anneal_t0 in
  (for _ = 1 to max 0 knobs.budget do
     match Memspace.probe_random_text space ~rng:ctx.rng ~size:req.size with
     | None -> ()
     | Some (glo, ghi) ->
         let c = whole ~gap:(glo, ghi) glo in
         let s = score c in
         ctx.tally.Cost.iterations <- ctx.tally.Cost.iterations + 1;
         let delta = s -. fst !cur in
         let accept =
           delta < 0.0
           || (!temp > 0.0 && Zipr_util.Rng.chance ctx.rng (Float.exp (-.delta /. !temp)))
         in
         if accept then begin
           ctx.tally.Cost.accepted <- ctx.tally.Cost.accepted + 1;
           cur := (s, c);
           if s < fst !best then best := (s, c)
         end
         else ctx.tally.Cost.rejected <- ctx.tally.Cost.rejected + 1;
         temp := !temp *. anneal_decay
   done);
  (* A split can still beat the best whole candidate (typically when
     everything whole spills) — offer it the same way enumeration does. *)
  match split_cand req space with
  | Some c when score c < fst !best -> c
  | _ -> snd !best

let search ?(knobs = default_search_knobs) () =
  let decide ctx req =
    Obs.span "placement:search" (fun () ->
        let overflow_base = Memspace.overflow_base ctx.space in
        let it0 = ctx.tally.Cost.iterations
        and ac0 = ctx.tally.Cost.accepted
        and rj0 = ctx.tally.Cost.rejected in
        let chosen =
          if Memspace.text_gap_count ctx.space > knobs.anneal_gaps then
            search_anneal knobs ctx req ~overflow_base
          else search_beam knobs ctx req ~overflow_base
        in
        Obs.count "placement.search.iterations" (ctx.tally.Cost.iterations - it0);
        Obs.count "placement.search.accepted" (ctx.tally.Cost.accepted - ac0);
        Obs.count "placement.search.rejected" (ctx.tally.Cost.rejected - rj0);
        commit ctx req chosen)
  in
  {
    name = "search";
    decide;
    colocate_at_pin = true;
    prefer_short_pins = true;
    weights = Some knobs.weights;
  }

let all = [ naive; optimized; random; search () ]

let by_name n = List.find_opt (fun t -> t.name = n) all

let names = List.map (fun t -> t.name) all

let resolve ?budget ?epsilon ?weights_spec name =
  match by_name name with
  | None ->
      Error
        (Printf.sprintf "unknown placement strategy %S (expected one of: %s)" name
           (String.concat ", " names))
  | Some s when s.name <> "search" -> Ok s
  | Some _ -> (
      match Cost.weights_of_spec (Option.value weights_spec ~default:"") with
      | Error e -> Error (Printf.sprintf "bad placement weights: %s" e)
      | Ok weights ->
          let k = default_search_knobs in
          let budget = Option.value budget ~default:k.budget in
          if budget < 1 then Error "placement budget must be >= 1"
          else
            let epsilon = Option.value epsilon ~default:k.epsilon in
            if epsilon < 0.0 || epsilon > 1.0 then
              Error "placement epsilon must be in [0, 1]"
            else Ok (search ~knobs:{ k with weights; budget; epsilon } ()))
