(* Candidate instructions at every offset, pruned by flow validity. *)

let decode_all binary =
  let text = Zelf.Binary.text binary in
  let len = text.Zelf.Section.size in
  let data = text.Zelf.Section.data in
  Array.init len (fun off ->
      match Zvm.Decode.decode_sub data ~pos:off ~limit:len with
      | Ok decoded -> Some decoded
      | Error _ -> None)

(* Fallthrough as the prune and the tiling see it: [sys 0] exits. *)
let flows_on insn =
  match insn with Zvm.Insn.Sys 0 -> false | _ -> Zvm.Insn.has_fallthrough insn

let prune binary candidates =
  let base = (Zelf.Binary.text binary).Zelf.Section.vaddr in
  let len = Array.length candidates in
  let alive = Array.map Option.is_some candidates in
  let dead_flow target =
    (* Flow into the text at a dead offset kills the candidate; flow
       outside the text is left to other evidence. *)
    target >= base && target < base + len && not alive.(target - base)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for off = 0 to len - 1 do
      if alive.(off) then
        match candidates.(off) with
        | Some (insn, ilen) ->
            let addr = base + off in
            let kills =
              (flows_on insn && dead_flow (addr + ilen))
              ||
              match Zvm.Insn.static_target ~at:addr insn with
              | Some t -> dead_flow t
              | None -> false
            in
            if kills then begin
              alive.(off) <- false;
              changed := true
            end
        | None -> ()
    done
  done;
  alive

let prune_fixpoint binary = prune binary (decode_all binary)

(* A counting sort on score, stable in offset order. *)
let seed_order ~alive ~score =
  let len = Array.length alive in
  let top = ref 0 and n = ref 0 in
  for off = 0 to len - 1 do
    if alive.(off) then begin
      incr n;
      if score.(off) > !top then top := score.(off)
    end
  done;
  (* Bucket [top - s] holds score [s]; once the counts are summed,
     [next.(r)] is the next free slot of bucket [r]. *)
  let next = Array.make (!top + 2) 0 in
  for off = 0 to len - 1 do
    if alive.(off) then begin
      let r = !top - score.(off) + 1 in
      next.(r) <- next.(r) + 1
    end
  done;
  for r = 1 to !top + 1 do
    next.(r) <- next.(r) + next.(r - 1)
  done;
  let order = Array.make !n 0 in
  for off = 0 to len - 1 do
    if alive.(off) then begin
      let r = !top - score.(off) in
      order.(next.(r)) <- off;
      next.(r) <- next.(r) + 1
    end
  done;
  order

let run binary ~avoid =
  let text = Zelf.Binary.text binary in
  let base = text.Zelf.Section.vaddr in
  let len = text.Zelf.Section.size in
  let candidates = decode_all binary in
  let alive = prune binary candidates in
  (* Score surviving candidates: references from other survivors are
     evidence (probabilistic-disassembly flavour). *)
  let score = Array.make len 0 in
  for off = 0 to len - 1 do
    if alive.(off) then
      match candidates.(off) with
      | Some (insn, _) -> (
          match Zvm.Insn.static_target ~at:(base + off) insn with
          | Some t when t >= base && t < base + len && alive.(t - base) ->
              score.(t - base) <- score.(t - base) + 1
          | _ -> ())
      | None -> ()
  done;
  (* Greedy tiling: walk fallthrough chains from the best-scored seeds,
     claiming bytes not already claimed and not covered by [avoid]. *)
  let claims = Array.make len Source.Unknown in
  let insns : (int, Zvm.Insn.t * int) Hashtbl.t = Hashtbl.create 256 in
  let avoided off =
    let a = base + off - avoid.Recursive.base in
    a >= 0 && a < avoid.Recursive.len && avoid.Recursive.cover.(a) >= 0
  in
  (* Candidates never spill off the text, so [stop <= len]. *)
  let rec free i stop =
    i >= stop
    || match claims.(i) with Source.Unknown -> (not (avoided i)) && free (i + 1) stop | _ -> false
  in
  let rec claim_chain off =
    if off < len && alive.(off) && not (avoided off) then
      match candidates.(off) with
      | Some ((insn, ilen) as decoded) when free off (off + ilen) ->
          Array.fill claims off ilen (Source.Code (base + off));
          Hashtbl.replace insns (base + off) decoded;
          if flows_on insn then claim_chain (off + ilen)
      | _ -> ()
  in
  Array.iter claim_chain (seed_order ~alive ~score);
  (* Undecodable bytes are conclusive data; everything else we did not
     tile stays unknown (we are a low-confidence, best-effort source). *)
  for off = 0 to len - 1 do
    match (claims.(off), candidates.(off)) with
    | Source.Unknown, None when not (avoided off) -> claims.(off) <- Source.Data
    | _ -> ()
  done;
  {
    Source.name = "superset";
    base;
    len;
    claims;
    insns;
    confidence = Source.Low;
    kind = Source.Primary;
    tags = [||];
  }
