module Iset = Zipr_util.Interval_set
module Rng = Zipr_util.Rng

(* Large enough to never be exhausted by a realistic rewrite; the output
   binary only pays for the high-water mark actually written. *)
let default_overflow_span = 1 lsl 28

type counters = { queries : int; hits : int }

type t = {
  text_lo : int;
  text_hi : int;
  overflow_base : int;
  mutable free : Iset.t;  (* the whole address space *)
  mutable text_free : Iset.t;  (* [free] clipped to the text span *)
  mutable overflow_cursor : int;
  (* Allocator traffic lives in a per-instance obs registry: atomic
     cells, readable through [counters] exactly as the old plain ints
     were, and mergeable into a trace sink without a second mechanism. *)
  ctrs : Obs.Counters.t;
  c_queries : Obs.Counters.cell;
  c_hits : Obs.Counters.cell;
}

let create ?(overflow_cap = default_overflow_span) ~text_lo ~text_hi ~overflow_base () =
  let free = Iset.add Iset.empty ~lo:text_lo ~hi:text_hi in
  let free = Iset.add free ~lo:overflow_base ~hi:(overflow_base + overflow_cap) in
  let ctrs = Obs.Counters.create () in
  {
    text_lo;
    text_hi;
    overflow_base;
    free;
    text_free = Iset.add Iset.empty ~lo:text_lo ~hi:text_hi;
    overflow_cursor = overflow_base;
    ctrs;
    c_queries = Obs.Counters.counter ctrs "memspace.alloc_queries";
    c_hits = Obs.Counters.counter ctrs "memspace.alloc_hits";
  }

let text_lo t = t.text_lo
let text_hi t = t.text_hi
let overflow_base t = t.overflow_base

(* The text-clipped mirror set is what keeps every text-gap query (near,
   random, largest, totals) from rescanning and re-clipping the whole
   free map: reservations and releases maintain it incrementally. *)
let reserve t ~lo ~hi =
  t.free <- Iset.remove t.free ~lo ~hi;
  let tlo = max lo t.text_lo and thi = min hi t.text_hi in
  if thi > tlo then t.text_free <- Iset.remove t.text_free ~lo:tlo ~hi:thi

let release t ~lo ~hi =
  t.free <- Iset.add t.free ~lo ~hi;
  let tlo = max lo t.text_lo and thi = min hi t.text_hi in
  if thi > tlo then t.text_free <- Iset.add t.text_free ~lo:tlo ~hi:thi

let is_free t ~lo ~hi = Iset.contains_range t.free ~lo ~hi

let counters t = { queries = Obs.Counters.get t.c_queries; hits = Obs.Counters.get t.c_hits }

let obs_counters t = t.ctrs

let query t = Obs.Counters.incr t.c_queries

let tally t = function
  | Some _ as r ->
      Obs.Counters.incr t.c_hits;
      r
  | None -> None

let take t addr size =
  reserve t ~lo:addr ~hi:(addr + size);
  if addr >= t.overflow_base then t.overflow_cursor <- max t.overflow_cursor (addr + size);
  addr

let alloc_first t ~size =
  query t;
  match Iset.first_fit t.free ~size with
  | Some a ->
      Obs.Counters.incr t.c_hits;
      take t a size
  | None -> invalid_arg "Memspace.alloc_first: overflow exhausted"

let alloc_text_first t ~size =
  query t;
  match tally t (Iset.first_fit t.text_free ~size) with
  | Some a -> Some (take t a size)
  | None -> None

let alloc_in_window t ~lo ~hi ~size =
  query t;
  match tally t (Iset.fit_in_window t.free ~lo ~hi ~size) with
  | Some a -> Some (take t a size)
  | None -> None

let text_gaps t = Iset.intervals t.text_free

let find_text_gap t ~min_width ~f = Iset.find_map ~min_width f t.text_free

let alloc_near t ~center ~size =
  query t;
  match tally t (Iset.best_fit_near t.text_free ~center ~size) with
  | Some a -> Some (take t a size)
  | None -> None

let alloc_random_text t ~rng ~size =
  query t;
  match Iset.fitting_count t.text_free ~size with
  | 0 -> None
  | n -> (
      match Iset.kth_fit t.text_free ~size ~k:(Rng.int rng n) with
      | None -> assert false
      | Some (lo, hi) ->
          Obs.Counters.incr t.c_hits;
          let slack = hi - lo - size in
          let a = lo + if slack = 0 then 0 else Rng.int rng (slack + 1) in
          Some (take t a size))

let alloc_overflow t ~size =
  query t;
  match Iset.first_fit_at_or_after t.free ~pos:t.overflow_cursor ~size with
  | Some a ->
      Obs.Counters.incr t.c_hits;
      take t a size
  | None -> invalid_arg "Memspace.alloc_overflow: overflow exhausted"

let largest_text_gap t = Iset.largest t.text_free

let text_free_bytes t = Iset.total t.text_free

let text_gap_count t = Iset.count t.text_free

(* -- non-committing probes (Placement.search candidate enumeration) --

   Probes inspect the free map without reserving and without touching
   the query/hit counters: a search strategy weighs many candidates per
   decision and commits exactly one with [take_at], so allocator-traffic
   stats keep meaning "placements", not "candidates considered". *)

let probe_in_window t ~lo ~hi ~size = Iset.fit_in_window t.free ~lo ~hi ~size

let probe_text_fits t ~size ~budget =
  if budget <= 0 then []
  else begin
    let acc = ref [] and n = ref 0 in
    ignore
      (Iset.find_map ~min_width:size
         (fun glo ghi ->
           acc := (glo, ghi) :: !acc;
           incr n;
           if !n >= budget then Some () else None)
         t.text_free);
    List.rev !acc
  end

let probe_random_text t ~rng ~size =
  match Iset.fitting_count t.text_free ~size with
  | 0 -> None
  | n -> Iset.kth_fit t.text_free ~size ~k:(Rng.int rng n)

let probe_overflow t ~size =
  match Iset.first_fit_at_or_after t.free ~pos:t.overflow_cursor ~size with
  | Some a -> a
  | None -> invalid_arg "Memspace.probe_overflow: overflow exhausted"

let free_gap_at t addr = Iset.find_containing t.free addr

let take_at t ~addr ~size =
  query t;
  if not (is_free t ~lo:addr ~hi:(addr + size)) then
    invalid_arg "Memspace.take_at: range not free";
  Obs.Counters.incr t.c_hits;
  take t addr size
