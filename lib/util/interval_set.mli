(** Sets of disjoint half-open integer intervals.

    The reassembler tracks the free regions of the rewritten program's
    address space with one of these: placing a dollop removes an interval,
    giving bytes back (e.g. relaxing a 5-byte reservation down to a 2-byte
    jump) re-inserts one.  Intervals are [\[lo, hi)]; adjacent and
    overlapping intervals are coalesced on insertion.

    The representation is an AVL tree keyed on interval start, augmented
    per subtree with the member count, total bytes, and maximum member
    width, so the placement queries ({!first_fit}, {!fit_in_window},
    {!best_fit_near}, ...) run in [O(log n)] by pruning any subtree whose
    widest member is below the requested size; {!total} and {!count} are
    [O(1)].  Fit queries treat a non-positive [size] as 1. *)

type t

val empty : t

val is_empty : t -> bool

val add : t -> lo:int -> hi:int -> t
(** Insert [\[lo, hi)], merging with any overlapping or adjacent members.
    Empty or negative ranges are ignored. *)

val remove : t -> lo:int -> hi:int -> t
(** Remove every point of [\[lo, hi)] from the set, splitting members as
    needed.  Each member the range overlaps costs one path copy, plus one
    insertion when the range splits it (only possible for a range inside
    one member, the allocator's usual case). *)

val mem : t -> int -> bool
(** Is the point inside some interval?  [O(log n)]. *)

val find_containing : t -> int -> (int * int) option
(** The member interval containing the point, if any.  [O(log n)] — this
    is the containment query IR construction and IBT analysis issue per
    address against the data/fixed/ambiguous range sets. *)

val of_ranges : (int * int) list -> t
(** Build a set from arbitrary [(lo, hi)] pairs (overlap and adjacency
    are coalesced, empty ranges ignored), e.g. the range lists the
    disassembler aggregation emits. *)

val contains_range : t -> lo:int -> hi:int -> bool
(** Is the whole of [\[lo, hi)] inside a single member interval? *)

val total : t -> int
(** Sum of member lengths.  [O(1)]. *)

val count : t -> int
(** Number of member intervals.  [O(1)]. *)

val intervals : t -> (int * int) list
(** Members in increasing order. *)

val first_fit : t -> size:int -> int option
(** Lowest address [a] such that [\[a, a+size)] is free. *)

val first_fit_at_or_after : t -> pos:int -> size:int -> int option
(** Lowest [a >= pos] such that [\[a, a+size)] is free. *)

val best_fit_near : t -> center:int -> size:int -> int option
(** Free start address for a [size]-byte block minimizing distance to
    [center]; ties resolve to the lower address. *)

val fit_in_window : t -> lo:int -> hi:int -> size:int -> int option
(** Free start address [a] with [lo <= a] and [a + size <= hi], preferring
    the lowest such [a]. *)

val largest : t -> (int * int) option
(** The member with the most bytes (lowest-addressed on ties), if any. *)

val fitting_count : t -> size:int -> int
(** How many members are at least [size] bytes wide.  [O(matches + log n)]. *)

val kth_fit : t -> size:int -> k:int -> (int * int) option
(** The [k]-th (0-based, ascending) member at least [size] bytes wide.
    Subtrees without a fit are pruned, so selection visits only fitting
    regions of the tree. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] folds [f lo hi] over members in increasing order. *)

val find_map : min_width:int -> (int -> int -> 'a option) -> t -> 'a option
(** First [Some] produced by [f lo hi] over the members at least
    [min_width] wide, in increasing order, stopping early.  Narrower
    members are skipped without calling [f], and so is every subtree
    whose widest member is narrower. *)

val pp : Format.formatter -> t -> unit

val invariants : t -> string list
(** Structural self-check (balance, augmentation, ordering); empty when
    healthy.  For the property tests. *)
