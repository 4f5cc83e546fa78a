(* Seeded model-based property tests for the two structures the
   reassembler's space accounting stands on: Util.Interval_set and
   Core.Memspace.  Each test replays a long random operation sequence
   (driven by Zipr_util.Rng, so failures are reproducible from the seed
   in the test name) against a boolean-array reference model. *)

module Iset = Zipr_util.Interval_set
module Rng = Zipr_util.Rng

let universe = 512

(* -- Interval_set vs. boolean-array model -- *)

let model_total model = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model

let model_intervals model =
  let acc = ref [] and start = ref None in
  for i = 0 to Array.length model do
    let on = i < Array.length model && model.(i) in
    match (!start, on) with
    | None, true -> start := Some i
    | Some s, false ->
        acc := (s, i) :: !acc;
        start := None
    | _ -> ()
  done;
  List.rev !acc

let random_range rng =
  let lo = Rng.int rng universe in
  let hi = lo + Rng.int rng (universe - lo + 1) in
  (lo, hi)

(* Naive references for the positional queries, computed by linear scan
   over the ascending interval list — the semantics the O(log n) tree
   queries must reproduce exactly, tie-breaking included. *)

let naive_first_fit ivs ~size =
  List.find_map (fun (lo, hi) -> if hi - lo >= size then Some lo else None) ivs

let naive_first_fit_at_or_after ivs ~pos ~size =
  List.find_map
    (fun (lo, hi) ->
      let a = max lo pos in
      if hi - a >= size then Some a else None)
    ivs

let naive_fit_in_window ivs ~lo ~hi ~size =
  List.find_map
    (fun (glo, ghi) ->
      let a = max glo lo and b = min ghi hi in
      if b - a >= size then Some a else None)
    ivs

(* Lowest-addressed candidate among those minimizing distance to
   [center]: candidates ascend with the interval list, so keeping the
   first strict improvement reproduces the tree's d1 <= d2 tie-break. *)
let naive_best_fit_near ivs ~center ~size =
  List.fold_left
    (fun best (glo, ghi) ->
      if ghi - glo < size then best
      else
        let a = max glo (min center (ghi - size)) in
        let d = abs (a - center) in
        match best with Some (_, bd) when bd <= d -> best | _ -> Some (a, d))
    None ivs
  |> Option.map fst

let naive_largest ivs =
  List.fold_left
    (fun best (lo, hi) ->
      match best with Some (blo, bhi) when bhi - blo >= hi - lo -> Some (blo, bhi) | _ -> Some (lo, hi))
    None ivs

let check_queries seed step rng set ivs =
  let chk name expected got =
    Alcotest.(check (option int)) (Printf.sprintf "seed %d step %d %s" seed step name) expected got
  in
  let size = Rng.int_in rng 1 32 in
  let pos = Rng.int rng universe in
  let wlo = Rng.int rng universe in
  let whi = wlo + Rng.int rng (universe - wlo + 1) in
  let center = Rng.int rng universe in
  chk "first_fit" (naive_first_fit ivs ~size) (Iset.first_fit set ~size);
  chk "first_fit_at_or_after"
    (naive_first_fit_at_or_after ivs ~pos ~size)
    (Iset.first_fit_at_or_after set ~pos ~size);
  chk "fit_in_window"
    (naive_fit_in_window ivs ~lo:wlo ~hi:whi ~size)
    (Iset.fit_in_window set ~lo:wlo ~hi:whi ~size);
  chk "best_fit_near"
    (naive_best_fit_near ivs ~center ~size)
    (Iset.best_fit_near set ~center ~size);
  Alcotest.(check (option (pair int int)))
    (Printf.sprintf "seed %d step %d largest" seed step)
    (naive_largest ivs) (Iset.largest set);
  (* [find_map ~min_width] calls its function on exactly the members at
     least that wide, in order, up to the first match: pruning skips no
     wide member and never shows a narrow one. *)
  let min_width = Rng.int_in rng 1 32 and parity = Rng.int rng 2 in
  let pick lo hi = if (lo + hi) land 1 = parity then Some lo else None in
  let seen = ref [] in
  let got =
    Iset.find_map ~min_width
      (fun lo hi ->
        seen := (lo, hi) :: !seen;
        pick lo hi)
      set
  in
  let wide = List.filter (fun (lo, hi) -> hi - lo >= min_width) ivs in
  chk "find_map ~min_width" (List.find_map (fun (lo, hi) -> pick lo hi) wide) got;
  let rec upto_match = function
    | [] -> []
    | ((lo, hi) as m) :: rest -> if pick lo hi <> None then [ m ] else m :: upto_match rest
  in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "seed %d step %d find_map ~min_width visits" seed step)
    (upto_match wide) (List.rev !seen)

(* A range inside one member of [set], when it has one: the whole
   member, a piece from its start, a piece to its end, or a piece
   strictly inside it.  These are the shapes [Iset.remove] carves in
   place. *)
let inside_member_range rng set =
  match Iset.intervals set with
  | [] -> None
  | ivs ->
      let mlo, mhi = List.nth ivs (Rng.int rng (List.length ivs)) in
      let w = mhi - mlo in
      Some
        (match Rng.int rng 4 with
        | 1 -> (mlo, mlo + 1 + Rng.int rng w)
        | 2 -> (mhi - 1 - Rng.int rng w, mhi)
        | 3 when w >= 3 ->
            let lo = mlo + 1 + Rng.int rng (w - 2) in
            (lo, lo + 1 + Rng.int rng (mhi - 1 - lo))
        | _ -> (mlo, mhi))

let run_interval_set_ops seed ops =
  let rng = Rng.create seed in
  let model = Array.make universe false in
  let set = ref Iset.empty in
  for step = 1 to ops do
    let adding = Rng.bool rng in
    (* Half the removes lie inside one member. *)
    let lo, hi =
      match if adding || Rng.bool rng then None else inside_member_range rng !set with
      | Some r -> r
      | None -> random_range rng
    in
    if adding then begin
      set := Iset.add !set ~lo ~hi;
      for i = lo to hi - 1 do
        model.(i) <- true
      done
    end
    else begin
      set := Iset.remove !set ~lo ~hi;
      for i = lo to hi - 1 do
        model.(i) <- false
      done
    end;
    (* Invariant: membership and containment agree pointwise with the
       naive list model (spot-check 16 points). *)
    let naive_containing ivs p =
      List.find_opt (fun (lo, hi) -> p >= lo && p < hi) ivs
    in
    for _ = 1 to 16 do
      let p = Rng.int rng universe in
      if Iset.mem !set p <> model.(p) then
        Alcotest.failf "seed %d step %d: mem %d disagrees" seed step p;
      let expected = naive_containing (model_intervals model) p in
      if Iset.find_containing !set p <> expected then
        Alcotest.failf "seed %d step %d: find_containing %d disagrees" seed step p
    done;
    (* Invariant: total equals the model's population count. *)
    if Iset.total !set <> model_total model then
      Alcotest.failf "seed %d step %d: total %d, model %d" seed step (Iset.total !set)
        (model_total model);
    (* Invariant: members are exactly the model's maximal runs — this is
       both correctness and the coalesced/disjoint representation
       invariant (sorted, non-overlapping, non-adjacent). *)
    let ivs = model_intervals model in
    if Iset.intervals !set <> ivs then
      Alcotest.failf "seed %d step %d: interval lists disagree" seed step;
    (* Invariant: the tree's structural self-checks (balance, ordering,
       augmented count/bytes/max-width) hold after every operation. *)
    (match Iset.invariants !set with
    | [] -> ()
    | vs -> Alcotest.failf "seed %d step %d: %s" seed step (String.concat "; " vs));
    (* The positional fit queries agree with the naive linear-scan
       references, tie-breaking included. *)
    check_queries seed step rng !set ivs
  done;
  (* Round-trip: rebuild from the member list; must be identical. *)
  let rebuilt =
    List.fold_left (fun s (lo, hi) -> Iset.add s ~lo ~hi) Iset.empty (Iset.intervals !set)
  in
  Alcotest.(check (list (pair int int)))
    "round-trip through intervals" (Iset.intervals !set) (Iset.intervals rebuilt)

let test_interval_set_model () =
  List.iter (fun seed -> run_interval_set_ops seed 200) [ 11; 22; 33 ]

(* union/subtract algebra on random operand pairs *)
let test_interval_set_algebra () =
  let rng = Rng.create 44 in
  for _ = 1 to 200 do
    let lo1, hi1 = random_range rng and lo2, hi2 = random_range rng in
    let a = Iset.add Iset.empty ~lo:lo1 ~hi:hi1 in
    let ab = Iset.add a ~lo:lo2 ~hi:hi2 in
    (* adding is monotone and bounded by the sum of lengths *)
    Alcotest.(check bool) "union grows" true (Iset.total ab >= Iset.total a);
    Alcotest.(check bool) "union bounded" true
      (Iset.total ab <= Iset.total a + max 0 (hi2 - lo2));
    (* subtracting what was added of the second operand restores the
       first minus any overlap: total is the inclusion-exclusion value *)
    let diff = Iset.remove ab ~lo:lo2 ~hi:hi2 in
    let expected = Iset.total a - (let l = max lo1 lo2 and h = min hi1 hi2 in max 0 (h - l)) in
    Alcotest.(check int) "subtract = inclusion-exclusion" expected (Iset.total diff);
    (* removing everything empties the set *)
    Alcotest.(check bool) "remove all" true
      (Iset.is_empty (Iset.remove ab ~lo:0 ~hi:universe))
  done

(* Adjacency coalescing: the representation keeps maximal runs, so adds
   that touch (but do not overlap) existing members must merge, removes
   must split, and the fit queries must see the merged extents — these
   are exactly the shapes that stress the tree's delete/reinsert path. *)
let test_interval_set_adjacency () =
  let ivs = Iset.intervals in
  let inv name s =
    match Iset.invariants s with
    | [] -> ()
    | vs -> Alcotest.failf "%s: %s" name (String.concat "; " vs)
  in
  let s = Iset.add Iset.empty ~lo:0 ~hi:10 in
  let s = Iset.add s ~lo:10 ~hi:20 in
  inv "right-adjacent" s;
  Alcotest.(check (list (pair int int))) "right-adjacent coalesces" [ (0, 20) ] (ivs s);
  let s = Iset.add s ~lo:30 ~hi:40 in
  let s = Iset.add s ~lo:20 ~hi:30 in
  inv "bridge" s;
  Alcotest.(check (list (pair int int))) "bridging add coalesces all three" [ (0, 40) ] (ivs s);
  (* A fit spanning what used to be three members only exists because
     the seams coalesced. *)
  Alcotest.(check (option int)) "fit across seams" (Some 5)
    (Iset.first_fit_at_or_after s ~pos:5 ~size:30);
  Alcotest.(check (option int)) "window across seams" (Some 8)
    (Iset.fit_in_window s ~lo:8 ~hi:40 ~size:30);
  Alcotest.(check (option int)) "near clamps into merged run" (Some 10)
    (Iset.best_fit_near s ~center:25 ~size:30);
  let s = Iset.remove s ~lo:15 ~hi:25 in
  inv "split" s;
  Alcotest.(check (list (pair int int))) "interior remove splits" [ (0, 15); (25, 40) ] (ivs s);
  Alcotest.(check (option int)) "no fit across the hole" None
    (Iset.fit_in_window s ~lo:0 ~hi:40 ~size:16);
  let s = Iset.add s ~lo:15 ~hi:25 in
  inv "rejoin" s;
  Alcotest.(check (list (pair int int))) "re-add rejoins" [ (0, 40) ] (ivs s);
  let s' = Iset.add s ~lo:7 ~hi:7 in
  Alcotest.(check (list (pair int int))) "empty add is a no-op" (ivs s) (ivs s');
  let s' = Iset.add s ~lo:5 ~hi:35 in
  Alcotest.(check (list (pair int int))) "covered add is idempotent" (ivs s) (ivs s');
  (* Containment respects half-open bounds on a coalesced member. *)
  Alcotest.(check (option (pair int int))) "find_containing at lo" (Some (0, 40))
    (Iset.find_containing s 0);
  Alcotest.(check (option (pair int int))) "find_containing mid" (Some (0, 40))
    (Iset.find_containing s 25);
  Alcotest.(check (option (pair int int))) "find_containing at hi is out" None
    (Iset.find_containing s 40);
  (* of_ranges coalesces overlap and adjacency and drops empties. *)
  let built = Iset.of_ranges [ (10, 20); (0, 10); (25, 25); (15, 22) ] in
  Alcotest.(check (list (pair int int))) "of_ranges coalesces" [ (0, 22) ] (ivs built)

(* -- Memspace vs. allocation model -- *)

let test_memspace_model () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let text_lo = 0x1000 and text_hi = 0x1000 + universe in
      let ms =
        Zipr.Memspace.create ~overflow_cap:4096 ~text_lo ~text_hi
          ~overflow_base:0x100000 ()
      in
      (* model: one flag per text byte, true = free *)
      let free = Array.make universe true in
      let model_free_bytes () = Array.fold_left (fun n b -> if b then n + 1 else n) 0 free in
      let allocated = ref [] in
      for step = 1 to 300 do
        let size = Rng.int_in rng 1 24 in
        match Rng.int rng 3 with
        | 0 -> (
            (* allocate: must return a block that the model says is free,
               and must not overlap any outstanding allocation *)
            match Zipr.Memspace.alloc_text_first ms ~size with
            | None ->
                (* the model must agree there is no run of [size] free bytes *)
                let rec has_run i run =
                  if run >= size then true
                  else if i >= universe then false
                  else if free.(i) then has_run (i + 1) (run + 1)
                  else has_run (i + 1) 0
                in
                if has_run 0 0 then
                  Alcotest.failf "seed %d step %d: alloc failed with %d free run" seed step size
            | Some addr ->
                let off = addr - text_lo in
                if off < 0 || off + size > universe then
                  Alcotest.failf "seed %d step %d: alloc outside text" seed step;
                for i = off to off + size - 1 do
                  if not free.(i) then
                    Alcotest.failf "seed %d step %d: alloc overlaps at %d" seed step i;
                  free.(i) <- false
                done;
                List.iter
                  (fun (lo, hi) ->
                    if addr < hi && addr + size > lo then
                      Alcotest.failf "seed %d step %d: overlapping allocations" seed step)
                  !allocated;
                allocated := (addr, addr + size) :: !allocated)
        | 1 -> (
            (* free a previously allocated block *)
            match !allocated with
            | [] -> ()
            | l ->
                let n = Rng.int rng (List.length l) in
                let lo, hi = List.nth l n in
                Zipr.Memspace.release ms ~lo ~hi;
                for i = lo - text_lo to hi - text_lo - 1 do
                  free.(i) <- true
                done;
                allocated := List.filteri (fun i _ -> i <> n) l)
        | _ ->
            (* conservation + agreement probes *)
            Alcotest.(check int)
              (Printf.sprintf "seed %d step %d free bytes" seed step)
              (model_free_bytes ())
              (Zipr.Memspace.text_free_bytes ms);
            let lo = text_lo + Rng.int rng universe in
            let hi = min text_hi (lo + Rng.int_in rng 1 16) in
            let model_is_free =
              let rec go i = i >= hi - text_lo || (free.(i) && go (i + 1)) in
              go (lo - text_lo)
            in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d step %d is_free [0x%x,0x%x)" seed step lo hi)
              model_is_free
              (Zipr.Memspace.is_free ms ~lo ~hi)
      done;
      (* conservation at the end: allocated + free covers the text span *)
      let outstanding = List.fold_left (fun n (lo, hi) -> n + (hi - lo)) 0 !allocated in
      Alcotest.(check int) "free + allocated = span"
        (universe - outstanding)
        (Zipr.Memspace.text_free_bytes ms))
    [ 5; 6; 7 ]

let suite =
  [
    Alcotest.test_case "interval_set vs model" `Quick test_interval_set_model;
    Alcotest.test_case "interval_set algebra" `Quick test_interval_set_algebra;
    Alcotest.test_case "interval_set adjacency" `Quick test_interval_set_adjacency;
    Alcotest.test_case "memspace vs model" `Quick test_memspace_model;
  ]
