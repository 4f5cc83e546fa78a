(* A corpus of successive versions of "the same" binary, built so that
   version-to-version byte churn is *local*: every routine a version did
   not touch keeps its bytes.

   Three layout rules buy that locality (see DESIGN.md §12):

   - No direct cross-routine control flow.  Calls go through an
     absolute-addressed pointer table in rodata ([Movi_lab slot; Load;
     Callr]), so a routine's encoded bytes never embed another
     routine's address and are invariant under text-layout shifts.
   - The pointer table and the per-routine data pools have a fixed
     shape: one slot per potential routine, one pool per potential
     routine, whether or not it is live in a given version.  Absolute
     data references therefore never move between versions.
   - Each routine ends in [Ret] and is generated from an RNG keyed by
     [(seed, routine id, variant)] alone.  An unedited routine emits
     identical bytes in every version; an edit bumps only that
     routine's variant.

   The table words double as the reachability story: every live routine's
   slot holds its text address, so the recursive disassembler (which
   seeds from address-looking words in data sections) covers every
   routine even though all calls are indirect. *)

module Rng = Zipr_util.Rng
module Insn = Zvm.Insn
module Reg = Zvm.Reg
module B = Zasm.Builder

type edit =
  | Insn_edit of int
  | Data_move of int
  | Insert of int
  | Delete of int

type version = { name : string; binary : Zelf.Binary.t; edits : edit list }

let pp_edit ppf = function
  | Insn_edit r -> Format.fprintf ppf "edit r%d" r
  | Data_move r -> Format.fprintf ppf "move-data r%d" r
  | Insert r -> Format.fprintf ppf "insert r%d" r
  | Delete r -> Format.fprintf ppf "delete r%d" r

(* Per-version shape of the program.  [variant] and [data_slot] are
   per-routine edit counters: bumping one regenerates that routine's
   body (and only it). *)
type state = {
  live : bool array;
  variant : int array;
  data_slot : int array;
}

let pool_words = 16

let routine_rng ~seed ~id st =
  Rng.create
    (Rng.derive
       ~corpus_seed:(Rng.derive ~corpus_seed:seed ~index:(id + 1))
       ~index:st.variant.(id))

(* Constants kept below the text base (0x10000) so no immediate or pool
   word aliases a code address and perturbs the disassembler's seeding. *)
let small_const rng = Rng.int_in rng 1 0xffff

let slot_label id = Printf.sprintf "slot%d" id
let routine_label id = Printf.sprintf "r%d" id
let pool_label id = Printf.sprintf "dpool%d" id

(* An indirect call through routine [callee]'s table slot: three
   instructions whose bytes depend only on the (fixed) slot address. *)
let emit_table_call b callee =
  B.movi_lab b Reg.R6 (slot_label callee);
  B.insn b (Insn.Load { dst = Reg.R7; base = Reg.R6; disp = 0 });
  B.insn b (Insn.Callr Reg.R7)

let alu_ops = [| Insn.Add; Sub; Mul; And; Or; Xor; Shl; Shr |]
let alui_ops = [| Insn.Addi; Subi; Andi; Ori; Xori; Muli |]
let gp = [| Reg.R0; Reg.R1; Reg.R2; Reg.R3 |]

let emit_random_insn b rng =
  match Rng.int rng 6 with
  | 0 ->
      B.insn b
        (Insn.Alu (alu_ops.(Rng.int rng (Array.length alu_ops)), gp.(Rng.int rng 4), gp.(Rng.int rng 4)))
  | 1 ->
      B.insn b
        (Insn.Alui (alui_ops.(Rng.int rng (Array.length alui_ops)), gp.(Rng.int rng 4), small_const rng))
  | 2 -> B.insn b (Insn.Movi (gp.(Rng.int rng 4), small_const rng))
  | 3 -> B.insn b (Insn.Mov (gp.(Rng.int rng 4), gp.(Rng.int rng 4)))
  | 4 -> B.insn b (Insn.Not gp.(Rng.int rng 4))
  | _ -> B.insn b (Insn.Neg gp.(Rng.int rng 4))

let conds = [| Zvm.Cond.Eq; Ne; Lt; Ge; Gt; Le |]

(* One routine body.  Deterministic in (seed, id, variant, data_slot). *)
let emit_routine b ~seed ~id ~body_ops ~n_core st =
  let rng = routine_rng ~seed ~id st in
  B.label b (routine_label id);
  B.insn b (Insn.Push Reg.R1);
  B.insn b (Insn.Push Reg.R2);
  (* Read this routine's word from its (fixed-address) data pool; a
     data-move edit changes only the slot displacement. *)
  B.movi_lab b Reg.R6 (pool_label id);
  B.insn b (Insn.Load { dst = Reg.R2; base = Reg.R6; disp = 4 * st.data_slot.(id) });
  let ops = body_ops + Rng.int rng (1 + (body_ops / 2)) in
  let skip = B.fresh b "skip" in
  for i = 1 to ops do
    emit_random_insn b rng;
    (* A forward conditional hop roughly every 12 ops keeps the CFG
       non-trivial without leaving the routine. *)
    if i mod 12 = 0 then begin
      B.insn b (Insn.Cmpi (Reg.R2, small_const rng));
      B.jcc b conds.(Rng.int rng (Array.length conds)) skip
    end
  done;
  B.label b skip;
  (* A short counted loop: a backward branch inside the routine. *)
  let top = B.fresh b "loop" in
  B.insn b (Insn.Movi (Reg.R1, 1 + Rng.int rng 7));
  B.label b top;
  B.insn b (Insn.Alui (Insn.Subi, Reg.R1, 1));
  B.insn b (Insn.Cmpi (Reg.R1, 0));
  B.jcc b Zvm.Cond.Ne top;
  (* Maybe call a core routine (core routines are live in every
     version, so the callee choice never dangles). *)
  if Rng.bool rng && id >= n_core then emit_table_call b (Rng.int rng n_core);
  B.insn b (Insn.Pop Reg.R2);
  B.insn b (Insn.Pop Reg.R1);
  B.insn b Insn.Ret

let emit_program ~seed ~n_core ~n_max ~body_ops st =
  let b = B.create ~entry:"main" () in
  (* Entry: call a handful of core routines through the table, halt. *)
  B.label b "main";
  B.insn b (Insn.Movi (Reg.R0, 0));
  for i = 0 to min 3 (n_core - 1) do
    emit_table_call b i
  done;
  B.insn b Insn.Halt;
  for id = 0 to n_max - 1 do
    if st.live.(id) then emit_routine b ~seed ~id ~body_ops ~n_core st
  done;
  (* The pointer table: fixed shape, one word per potential routine.
     Dead slots point at routine 0 so the table's size — and with it
     every slot's absolute address — is version-invariant. *)
  B.rodata_label b "rtab";
  for id = 0 to n_max - 1 do
    B.rodata_label b (slot_label id);
    B.rodata_word b
      (Zasm.Ast.Lab (routine_label (if st.live.(id) then id else 0)))
  done;
  (* Per-routine data pools, also fixed shape.  Word values depend only
     on (seed, id), never on the version. *)
  for id = 0 to n_max - 1 do
    let rng = Rng.create (Rng.derive ~corpus_seed:(seed lxor 0x5eed) ~index:id) in
    B.data_label b (pool_label id);
    for _ = 1 to pool_words do
      B.data_word b (Zasm.Ast.Abs (small_const rng))
    done
  done;
  let binary, _symbols = B.assemble_exn b in
  binary

(* -- version evolution -- *)

let apply_edit st edit =
  match edit with
  | Insn_edit id -> st.variant.(id) <- st.variant.(id) + 1
  | Data_move id -> st.data_slot.(id) <- (st.data_slot.(id) + 1) mod pool_words
  | Insert id ->
      st.live.(id) <- true;
      st.variant.(id) <- st.variant.(id) + 1
  | Delete id -> st.live.(id) <- false

let pick_live rng st ~lo ~hi =
  let live = ref [] in
  for id = hi - 1 downto lo do
    if st.live.(id) then live := id :: !live
  done;
  match !live with [] -> None | l -> Some (List.nth l (Rng.int rng (List.length l)))

let pick_dead rng st ~lo ~hi =
  let dead = ref [] in
  for id = hi - 1 downto lo do
    if not st.live.(id) then dead := id :: !dead
  done;
  match !dead with [] -> None | l -> Some (List.nth l (Rng.int rng (List.length l)))

let choose_edit rng st ~n_core ~n_max =
  let any_live () =
    match pick_live rng st ~lo:0 ~hi:n_max with
    | Some id -> Insn_edit id
    | None -> Insn_edit 0
  in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> any_live ()
  | 4 | 5 -> (
      match pick_live rng st ~lo:0 ~hi:n_max with
      | Some id -> Data_move id
      | None -> any_live ())
  | 6 | 7 -> (
      (* Insert an unused extra routine. *)
      match pick_dead rng st ~lo:n_core ~hi:n_max with
      | Some id -> Insert id
      | None -> any_live ())
  | _ -> (
      (* Delete an extra (never a core routine: cores anchor the call
         graph and the entry sequence). *)
      match pick_live rng st ~lo:n_core ~hi:n_max with
      | Some id -> Delete id
      | None -> any_live ())

let generate ?(n_routines = 24) ?(n_extras = 8) ?(body_ops = 36)
    ?(edits_per_version = 2) ~seed ~versions () =
  if versions < 1 then invalid_arg "Versioned.generate: versions < 1";
  let n_core = max 1 n_routines and n_extra = max 1 n_extras in
  let n_max = n_core + n_extra in
  let st =
    {
      live = Array.init n_max (fun id -> id < n_core + (n_extra / 2));
      variant = Array.make n_max 0;
      data_slot = Array.make n_max 0;
    }
  in
  let out = ref [] in
  for v = 0 to versions - 1 do
    let edits =
      if v = 0 then []
      else begin
        let rng = Rng.create (Rng.derive ~corpus_seed:(seed lxor 0xed17) ~index:v) in
        List.init edits_per_version (fun _ ->
            let e = choose_edit rng st ~n_core ~n_max in
            apply_edit st e;
            e)
      end
    in
    let binary = emit_program ~seed ~n_core ~n_max ~body_ops st in
    out := { name = Printf.sprintf "v%d" v; binary; edits } :: !out
  done;
  List.rev !out
