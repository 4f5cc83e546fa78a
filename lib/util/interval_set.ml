(* Sets of disjoint half-open integer intervals, stored as an AVL tree
   keyed on interval start and augmented per subtree with the member
   count, total byte count and maximum member width.  The augmentation is
   what makes the allocator queries (first_fit, fit_in_window,
   best_fit_near, ...) logarithmic: a subtree whose max width is below
   the requested size cannot contain a fit and is pruned wholesale.

   Invariant: intervals are non-empty, disjoint, and non-adjacent (gaps
   of at least one byte), so every mutation can reason locally about at
   most a few neighbours. *)

type t =
  | Leaf
  | Node of {
      l : t;
      lo : int;
      hi : int;
      r : t;
      h : int;  (* AVL height *)
      n : int;  (* members in this subtree *)
      bytes : int;  (* sum of member widths in this subtree *)
      maxw : int;  (* widest member in this subtree *)
    }

let empty = Leaf

let is_empty t = t = Leaf

let height = function Leaf -> 0 | Node nd -> nd.h
let count = function Leaf -> 0 | Node nd -> nd.n
let total = function Leaf -> 0 | Node nd -> nd.bytes
let max_width = function Leaf -> 0 | Node nd -> nd.maxw

let mk l lo hi r =
  Node
    {
      l;
      lo;
      hi;
      r;
      h = 1 + max (height l) (height r);
      n = 1 + count l + count r;
      bytes = hi - lo + total l + total r;
      maxw = max (hi - lo) (max (max_width l) (max_width r));
    }

(* Rebalancing in the style of the stdlib Map: tolerate a height skew of
   2, rotate beyond that. *)
let bal l lo hi r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Leaf -> assert false
    | Node ln ->
        if height ln.l >= height ln.r then mk ln.l ln.lo ln.hi (mk ln.r lo hi r)
        else (
          match ln.r with
          | Leaf -> assert false
          | Node lrn -> mk (mk ln.l ln.lo ln.hi lrn.l) lrn.lo lrn.hi (mk lrn.r lo hi r))
  else if hr > hl + 2 then
    match r with
    | Leaf -> assert false
    | Node rn ->
        if height rn.r >= height rn.l then mk (mk l lo hi rn.l) rn.lo rn.hi rn.r
        else (
          match rn.l with
          | Leaf -> assert false
          | Node rln -> mk (mk l lo hi rln.l) rln.lo rln.hi (mk rln.r rn.lo rn.hi rn.r))
  else mk l lo hi r

(* Insert a member known to be disjoint from (and non-adjacent to) every
   existing member, except that an exact key match replaces. *)
let rec insert t lo hi =
  match t with
  | Leaf -> mk Leaf lo hi Leaf
  | Node nd ->
      if lo < nd.lo then bal (insert nd.l lo hi) nd.lo nd.hi nd.r
      else if lo > nd.lo then bal nd.l nd.lo nd.hi (insert nd.r lo hi)
      else mk nd.l lo hi nd.r

let rec min_member = function
  | Leaf -> invalid_arg "Interval_set.min_member"
  | Node { l = Leaf; lo; hi; _ } -> (lo, hi)
  | Node nd -> min_member nd.l

let rec remove_min = function
  | Leaf -> assert false
  | Node { l = Leaf; r; _ } -> r
  | Node nd -> bal (remove_min nd.l) nd.lo nd.hi nd.r

let glue l r =
  match (l, r) with
  | Leaf, t | t, Leaf -> t
  | _ ->
      let lo, hi = min_member r in
      bal l lo hi (remove_min r)

(* Delete the member whose start is exactly [key] (no-op otherwise). *)
let rec delete t key =
  match t with
  | Leaf -> Leaf
  | Node nd ->
      if key < nd.lo then bal (delete nd.l key) nd.lo nd.hi nd.r
      else if key > nd.lo then bal nd.l nd.lo nd.hi (delete nd.r key)
      else glue nd.l nd.r

(* Find the member starting at or immediately before [p]. *)
let rec pred_member t p =
  match t with
  | Leaf -> None
  | Node nd ->
      if p < nd.lo then pred_member nd.l p
      else (match pred_member nd.r p with Some _ as m -> m | None -> Some (nd.lo, nd.hi))

(* Find the member starting at or immediately after [p]. *)
let rec succ_member t p =
  match t with
  | Leaf -> None
  | Node nd ->
      if p > nd.lo then succ_member nd.r p
      else (match succ_member nd.l p with Some _ as m -> m | None -> Some (nd.lo, nd.hi))

let mem t p =
  match pred_member t p with Some (_, hi) -> p < hi | None -> false

let find_containing t p =
  match pred_member t p with
  | Some (lo, hi) when p < hi -> Some (lo, hi)
  | _ -> None

let contains_range t ~lo ~hi =
  if hi <= lo then true
  else match pred_member t lo with Some (_, mhi) -> hi <= mhi | None -> false

let add t ~lo ~hi =
  if hi <= lo then t
  else begin
    (* Absorb every member overlapping or adjacent to [lo, hi). *)
    let lo = ref lo and hi = ref hi in
    let t = ref t in
    (match pred_member !t !lo with
    | Some (mlo, mhi) when mhi >= !lo ->
        lo := min !lo mlo;
        hi := max !hi mhi;
        t := delete !t mlo
    | _ -> ());
    let continue = ref true in
    while !continue do
      match succ_member !t !lo with
      | Some (mlo, mhi) when mlo <= !hi ->
          hi := max !hi mhi;
          t := delete !t mlo
      | _ -> continue := false
    done;
    insert !t !lo !hi
  end

let of_ranges ranges =
  List.fold_left (fun t (lo, hi) -> add t ~lo ~hi) empty ranges

(* Take [lo, hi) out of the one member that contains it, with one path
   copy: the member is trimmed in place, since its start can only move
   right, and never past the next member's, so the key order holds.
   Only a split adds a node (the right-hand piece). *)
let rec carve t lo hi =
  match t with
  | Leaf -> assert false
  | Node nd ->
      if lo < nd.lo then bal (carve nd.l lo hi) nd.lo nd.hi nd.r
      else if lo >= nd.hi then bal nd.l nd.lo nd.hi (carve nd.r lo hi)
      else if nd.lo < lo then
        if hi < nd.hi then bal nd.l nd.lo lo (insert nd.r hi nd.hi) else mk nd.l nd.lo lo nd.r
      else if hi < nd.hi then mk nd.l hi nd.hi nd.r
      else glue nd.l nd.r

(* Carve every member that starts inside [lo, hi). *)
let rec carve_starting_in t lo hi =
  match succ_member t lo with
  | Some (mlo, mhi) when mlo < hi -> carve_starting_in (carve t mlo (min hi mhi)) lo hi
  | _ -> t

let remove t ~lo ~hi =
  if hi <= lo then t
  else
    (* The member containing [lo] first; the members past it only when
       it does not hold the whole range. *)
    match pred_member t lo with
    | Some (_, mhi) when mhi > lo ->
        let t = carve t lo (min hi mhi) in
        if hi > mhi then carve_starting_in t lo hi else t
    | _ -> carve_starting_in t lo hi

(* -- fit queries -- *)

(* Every query treats a non-positive size as 1: the set holds no empty
   members, so "any free byte" and "a 1-byte block" coincide, and the
   normalization keeps the max-width pruning argument watertight. *)

let rec leftmost_fit t size =
  match t with
  | Leaf -> None
  | Node nd ->
      if max_width nd.l >= size then leftmost_fit nd.l size
      else if nd.hi - nd.lo >= size then Some (nd.lo, nd.hi)
      else if max_width nd.r >= size then leftmost_fit nd.r size
      else None

let rec rightmost_fit t size =
  match t with
  | Leaf -> None
  | Node nd ->
      if max_width nd.r >= size then rightmost_fit nd.r size
      else if nd.hi - nd.lo >= size then Some (nd.lo, nd.hi)
      else if max_width nd.l >= size then rightmost_fit nd.l size
      else None

(* Members with start >= [pos], decomposed along the search path into an
   ascending list of (lo, hi, right-subtree) pieces; O(log n) of them,
   ordered so that each piece's member precedes its subtree, which
   precedes the next piece. *)
let rec pieces_at_or_after t pos acc =
  match t with
  | Leaf -> acc
  | Node nd ->
      if nd.lo < pos then pieces_at_or_after nd.r pos acc
      else pieces_at_or_after nd.l pos ((nd.lo, nd.hi, nd.r) :: acc)

(* Mirror image: members with start <= [pos], descending. *)
let rec pieces_at_or_before t pos acc =
  match t with
  | Leaf -> acc
  | Node nd ->
      if nd.lo > pos then pieces_at_or_before nd.l pos acc
      else pieces_at_or_before nd.r pos ((nd.lo, nd.hi, nd.l) :: acc)

let first_fit t ~size =
  let size = max 1 size in
  match leftmost_fit t size with Some (lo, _) -> Some lo | None -> None

let first_fit_at_or_after t ~pos ~size =
  let size = max 1 size in
  (* The member containing [pos] offers the lowest conceivable start. *)
  match pred_member t pos with
  | Some (_, mhi) when mhi - pos >= size -> Some pos
  | _ ->
      let rec scan = function
        | [] -> None
        | (mlo, mhi, right) :: rest ->
            if mhi - mlo >= size then Some mlo
            else (
              match leftmost_fit right size with
              | Some (a, _) -> Some a
              | None -> scan rest)
      in
      scan (pieces_at_or_after t (pos + 1) [])

let fit_in_window t ~lo ~hi ~size =
  let size = max 1 size in
  if hi - lo < size then None
  else
    match pred_member t lo with
    | Some (_, mhi) when min mhi hi - lo >= size -> Some lo
    | _ ->
        (* Leftmost member with min(mhi, hi) - mlo >= size.  Clipping at
           [hi] only shrinks a member, so max-width pruning stays sound;
           members starting past [hi - size] cannot fit, which prunes
           every right subtree beyond the window. *)
        let rec fit_clipped t =
          match t with
          | Leaf -> None
          | Node nd -> (
              match (if max_width nd.l >= size then fit_clipped nd.l else None) with
              | Some _ as a -> a
              | None ->
                  if nd.lo + size > hi then None
                  else if min nd.hi hi - nd.lo >= size then Some nd.lo
                  else if max_width nd.r >= size then fit_clipped nd.r
                  else None)
        in
        let rec scan = function
          | [] -> None
          | (mlo, mhi, right) :: rest ->
              if mlo + size > hi then None
              else if min mhi hi - mlo >= size then Some mlo
              else (match fit_clipped right with Some _ as a -> a | None -> scan rest)
        in
        scan (pieces_at_or_after t (lo + 1) [])

let best_fit_near t ~center ~size =
  let size = max 1 size in
  (* Among members starting at or left of [center], the rightmost fitting
     one yields the closest start: candidates there are clamped to
     [hi - size] (or to [center] inside the member containing it), and
     disjointness makes both the starts and ends increase together. *)
  let left =
    let rec scan = function
      | [] -> None
      | (mlo, mhi, lsub) :: rest ->
          if mhi - mlo >= size then Some (mlo, mhi)
          else (match rightmost_fit lsub size with Some _ as m -> m | None -> scan rest)
    in
    scan (pieces_at_or_before t center [])
  in
  (* Among members strictly right of [center], the leftmost fitting one
     minimizes [lo - center]. *)
  let right =
    let rec scan = function
      | [] -> None
      | (mlo, mhi, rsub) :: rest ->
          if mhi - mlo >= size then Some (mlo, mhi)
          else (match leftmost_fit rsub size with Some _ as m -> m | None -> scan rest)
    in
    scan (pieces_at_or_after t (center + 1) [])
  in
  let cand (mlo, mhi) =
    let a = max mlo (min center (mhi - size)) in
    (a, abs (a - center))
  in
  match (Option.map cand left, Option.map cand right) with
  | None, None -> None
  | Some (a, _), None | None, Some (a, _) -> Some a
  | Some (a1, d1), Some (a2, d2) -> Some (if d1 <= d2 then a1 else a2)

let largest t =
  match t with
  | Leaf -> None
  | Node root ->
      (* Descend toward the lowest-addressed member attaining the max. *)
      let rec go t w =
        match t with
        | Leaf -> None
        | Node nd ->
            if max_width nd.l = w then go nd.l w
            else if nd.hi - nd.lo = w then Some (nd.lo, nd.hi)
            else go nd.r w
      in
      go t root.maxw

(* -- fitting-member enumeration (diversity placement) -- *)

let fitting_count t ~size =
  let size = max 1 size in
  let rec go t =
    match t with
    | Leaf -> 0
    | Node nd ->
        if nd.maxw < size then 0
        else
          go nd.l + (if nd.hi - nd.lo >= size then 1 else 0) + go nd.r
  in
  go t

let kth_fit t ~size ~k =
  let size = max 1 size in
  let rec go t k =
    match t with
    | Leaf -> Error k
    | Node nd ->
        if nd.maxw < size then Error k
        else (
          match go nd.l k with
          | Ok _ as m -> m
          | Error k ->
              if nd.hi - nd.lo >= size && k = 0 then Ok (nd.lo, nd.hi)
              else go nd.r (if nd.hi - nd.lo >= size then k - 1 else k))
  in
  match go t k with Ok m -> Some m | Error _ -> None

(* -- traversal -- *)

let rec fold f t acc =
  match t with
  | Leaf -> acc
  | Node nd -> fold f nd.r (f nd.lo nd.hi (fold f nd.l acc))

let intervals t = List.rev (fold (fun lo hi acc -> (lo, hi) :: acc) t [])

let find_map ~min_width f t =
  let rec go t =
    match t with
    | Leaf -> None
    | Node nd -> (
        if nd.maxw < min_width then None
        else
          match go nd.l with
          | Some _ as m -> m
          | None -> (
              if nd.hi - nd.lo < min_width then go nd.r
              else match f nd.lo nd.hi with Some _ as m -> m | None -> go nd.r))
  in
  go t

let pp ppf t =
  Format.fprintf ppf "@[<h>";
  ignore (fold (fun lo hi () -> Format.fprintf ppf "[0x%x,0x%x) " lo hi) t ());
  Format.fprintf ppf "@]"

(* -- self check (for the property tests) -- *)

let invariants t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let rec go = function
    | Leaf -> (0, 0, 0, 0)
    | Node nd ->
        let hl, nl, bl, wl = go nd.l and hr, nr, br, wr = go nd.r in
        if nd.hi <= nd.lo then err "empty member [0x%x,0x%x)" nd.lo nd.hi;
        if abs (hl - hr) > 2 then err "imbalance at 0x%x (%d vs %d)" nd.lo hl hr;
        if nd.h <> 1 + max hl hr then err "stale height at 0x%x" nd.lo;
        if nd.n <> 1 + nl + nr then err "stale count at 0x%x" nd.lo;
        if nd.bytes <> nd.hi - nd.lo + bl + br then err "stale byte total at 0x%x" nd.lo;
        if nd.maxw <> max (nd.hi - nd.lo) (max wl wr) then err "stale max width at 0x%x" nd.lo;
        (nd.h, nd.n, nd.bytes, nd.maxw)
  in
  ignore (go t);
  let rec ordered = function
    | (_, h1) :: ((l2, _) :: _ as rest) ->
        if l2 <= h1 then err "members overlap or touch at 0x%x" l2;
        ordered rest
    | _ -> ()
  in
  ordered (intervals t);
  List.rev !errs
