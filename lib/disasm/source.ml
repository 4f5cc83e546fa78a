type claim = Code of int | Data | Unknown

type confidence = High | Low

type kind = Primary | Refiner

type t = {
  name : string;
  base : int;
  len : int;
  claims : claim array;
  insns : (int, Zvm.Insn.t * int) Hashtbl.t;
  confidence : confidence;
  kind : kind;
  tags : string array;
}

let tag_at t off =
  if Array.length t.tags = 0 || off < 0 || off >= t.len then "" else t.tags.(off)

(* Claims from a cover array, one [Code] block per instruction. *)
let claims_of_cover ~gap cover =
  let claims = Array.make (Array.length cover) gap in
  let last = ref gap in
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        (match !last with Code s when s = c -> () | _ -> last := Code c);
        claims.(i) <- !last
      end)
    cover;
  claims

let of_linear (lin : Linear.t) =
  {
    name = "linear-sweep";
    base = lin.Linear.base;
    len = lin.Linear.len;
    claims = claims_of_cover ~gap:Data lin.Linear.cover;
    insns = lin.Linear.insns;
    confidence = Low;
    kind = Primary;
    tags = [||];
  }

let of_recursive (r : Recursive.t) =
  {
    name = "recursive-traversal";
    base = r.Recursive.base;
    len = r.Recursive.len;
    claims = claims_of_cover ~gap:Unknown r.Recursive.cover;
    insns = r.Recursive.insns;
    confidence = High;
    kind = Primary;
    tags = [||];
  }

let claim_at t addr =
  if addr < t.base || addr >= t.base + t.len then Unknown else t.claims.(addr - t.base)
