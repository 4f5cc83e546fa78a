(** Free-space accounting for the rewritten program's address space.

    Initially the whole original text span plus the unbounded overflow
    area are free; IR construction reserves the ranges that must keep
    their original bytes (fixed ambiguous ranges, data-in-text), pin
    planning reserves reference slots and sleds, and dollop placement
    consumes the rest.  Placement strategies query this structure;
    reservations and releases keep it exact, which is what lets the
    optimized layout give back the 3 bytes of a pin slot that relaxation
    kept short (§III).

    Two augmented interval trees back the accounting: the full free map,
    and a mirror clipped to the original text span that is maintained
    incrementally on every reserve/release.  All placement queries are
    [O(log gaps)] (see {!Zipr_util.Interval_set}); none rebuild a gap
    list.  Every [alloc_*] call also bumps a query/hit counter pair so
    the reassembler can report allocator traffic ({!counters}). *)

type t

val create : ?overflow_cap:int -> text_lo:int -> text_hi:int -> overflow_base:int -> unit -> t
(** The overflow region is a free interval of [overflow_cap] bytes
    (default 256 MiB, effectively unbounded); its consumption is tracked
    by {!Codebuf} high-water, not here. *)

val text_lo : t -> int
val text_hi : t -> int
val overflow_base : t -> int

val reserve : t -> lo:int -> hi:int -> unit
(** Mark [\[lo, hi)] used.  Idempotent on already-used bytes. *)

val release : t -> lo:int -> hi:int -> unit

val is_free : t -> lo:int -> hi:int -> bool

val alloc_first : t -> size:int -> int
(** Lowest free block anywhere (text first, then overflow); reserves and
    returns its start.  Never fails — overflow is unbounded. *)

val alloc_text_first : t -> size:int -> int option
(** Lowest free block strictly inside the original text span. *)

val alloc_in_window : t -> lo:int -> hi:int -> size:int -> int option
(** Free block within a window (used for short-jump range and chaining);
    may land in overflow if the window covers it. *)

val alloc_near : t -> center:int -> size:int -> int option
(** Text-span block minimizing distance to [center]. *)

val alloc_random_text : t -> rng:Zipr_util.Rng.t -> size:int -> int option
(** Uniformly random text-span placement among candidate gaps (layout
    diversity). *)

val alloc_overflow : t -> size:int -> int
(** Force placement in the overflow area. *)

val largest_text_gap : t -> (int * int) option
(** Biggest free text-span interval, for dollop splitting decisions.
    [O(log gaps)]. *)

val text_free_bytes : t -> int
(** Free bytes inside the original text span.  [O(1)]. *)

val text_gap_count : t -> int
(** Number of free text-span intervals.  [O(1)]. *)

val text_gaps : t -> (int * int) list
(** Free intervals clipped to the text span, ascending.  [O(gaps)] —
    prefer {!find_text_gap} on hot paths. *)

val find_text_gap : t -> min_width:int -> f:(int -> int -> 'a option) -> 'a option
(** First [Some] produced by [f lo hi] over the ascending text gaps at
    least [min_width] wide, stopping early.  Narrower gaps are skipped
    without a call, whole subtrees of them at a time. *)

(** {2 Non-committing probes}

    Candidate enumeration for the search placement strategy: probes
    inspect the free map without reserving and without bumping the
    query/hit counters — a search weighs many candidates per decision
    and commits exactly one with {!take_at}, so allocator-traffic stats
    keep meaning "placements", not "candidates considered". *)

val probe_in_window : t -> lo:int -> hi:int -> size:int -> int option
(** Like {!alloc_in_window} but reserves nothing. *)

val probe_text_fits : t -> size:int -> budget:int -> (int * int) list
(** Up to [budget] ascending text gaps at least [size] bytes wide,
    with their bounds.  Stops scanning once [budget] are found. *)

val probe_random_text : t -> rng:Zipr_util.Rng.t -> size:int -> (int * int) option
(** A uniformly random text gap among those fitting [size] (the
    annealing proposal distribution); reserves nothing. *)

val probe_overflow : t -> size:int -> int
(** Where {!alloc_overflow} would place [size] bytes, without
    reserving. *)

val free_gap_at : t -> int -> (int * int) option
(** The free interval containing an address, if any — gives a probe
    candidate its surrounding gap bounds for fragmentation scoring. *)

val take_at : t -> addr:int -> size:int -> int
(** Commit a probed candidate: reserve [\[addr, addr+size)] (which must
    be entirely free — [Invalid_argument] otherwise) and return [addr].
    Counts as one allocator query and one hit. *)

type counters = { queries : int; hits : int }

val counters : t -> counters
(** Cumulative allocator traffic: one query per [alloc_*] call, one hit
    per call that found space. *)

val obs_counters : t -> Obs.Counters.t
(** The per-instance registry backing {!counters}, mergeable into a
    trace sink with [Obs.merge_counters]. *)
