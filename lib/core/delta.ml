(* Inert: see delta.mli. *)

type t = unit

type outcome = {
  ir : Ir_construction.t option;
  routine_hits : int;
  routine_misses : int;
  delta_built : bool;
}

let create ?fragment_bytes:_ ?memo_capacity:_ () = ()

let obtain () ~pin_config:_ ?infer:_ _ =
  { ir = None; routine_hits = 0; routine_misses = 0; delta_built = false }

let harvest () _ _ = ()
let fragment_bytes () = 0
