(* Tests for the IRDB: row bookkeeping, logical links, structural edits. *)

module Db = Irdb.Db
module Insn = Zvm.Insn
module Reg = Zvm.Reg

let dummy_binary () =
  Zelf.Binary.create ~entry:0x1000
    [ Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 (Bytes.make 64 '\x90') ]

let fresh () = Db.create ~orig:(dummy_binary ()) ()

let test_add_and_row () =
  let db = fresh () in
  let id = Db.add_insn ~orig_addr:0x1000 db Insn.Nop in
  let r = Db.row db id in
  Alcotest.(check bool) "insn" true (r.Db.insn = Insn.Nop);
  Alcotest.(check (option int)) "orig addr" (Some 0x1000) r.Db.orig_addr;
  Alcotest.(check (option int)) "find by addr" (Some id) (Db.find_by_orig_addr db 0x1000);
  Alcotest.(check int) "count" 1 (Db.count db)

let test_links () =
  let db = fresh () in
  let a = Db.add_insn db (Insn.Cmpi (Reg.R0, 1)) in
  let b = Db.add_insn db (Insn.Jcc (Zvm.Cond.Eq, Insn.Near, 0)) in
  let c = Db.add_insn db Insn.Ret in
  Db.set_fallthrough db a (Some b);
  Db.set_target db b (Some c);
  Alcotest.(check (option int)) "ft" (Some b) (Db.row db a).Db.fallthrough;
  Alcotest.(check (option int)) "tgt" (Some c) (Db.row db b).Db.target

let test_pin_unique () =
  let db = fresh () in
  let a = Db.add_insn db Insn.Nop in
  let b = Db.add_insn db Insn.Ret in
  Db.pin db a 0x1000;
  Alcotest.(check bool) "repin same row ok" true
    (try
       Db.pin db a 0x1000;
       true
     with Invalid_argument _ -> false);
  Alcotest.(check bool) "pin clash rejected" true
    (try
       Db.pin db b 0x1000;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list (pair int int))) "pin listing" [ (0x1000, a) ] (Db.pinned_addresses db)

let test_insert_before_steals_identity () =
  let db = fresh () in
  let target = Db.add_insn db Insn.Ret in
  let jumper = Db.add_insn db (Insn.Jmp (Insn.Near, 0)) in
  Db.set_target db jumper (Some target);
  Db.pin db target 0x1010;
  let moved = Db.insert_before db target (Insn.Push Reg.R0) in
  (* The old id now holds the inserted instruction and still receives the
     jump and the pin; the displaced ret lives in the new row. *)
  Alcotest.(check bool) "old id holds check" true ((Db.row db target).Db.insn = Insn.Push Reg.R0);
  Alcotest.(check bool) "moved holds ret" true ((Db.row db moved).Db.insn = Insn.Ret);
  Alcotest.(check (option int)) "jump still points at old id" (Some target)
    (Db.row db jumper).Db.target;
  Alcotest.(check (option int)) "pin kept" (Some 0x1010) (Db.row db target).Db.pinned;
  Alcotest.(check (option int)) "fallthrough chains" (Some moved)
    (Db.row db target).Db.fallthrough

let test_insert_after () =
  let db = fresh () in
  let a = Db.add_insn db (Insn.Call 0) in
  let b = Db.add_insn db Insn.Ret in
  Db.set_fallthrough db a (Some b);
  let mid = Db.insert_after db a Insn.Retland in
  Alcotest.(check (option int)) "a -> mid" (Some mid) (Db.row db a).Db.fallthrough;
  Alcotest.(check (option int)) "mid -> b" (Some b) (Db.row db mid).Db.fallthrough;
  Alcotest.check_raises "no fallthrough"
    (Invalid_argument "Db.insert_after: row has no fallthrough") (fun () ->
      ignore (Db.insert_after db b Insn.Nop))

let test_append_chain () =
  let db = fresh () in
  let head = Db.append_chain db [ Insn.Movi (Reg.R0, 139); Insn.Sys 0 ] in
  let r = Db.row db head in
  Alcotest.(check bool) "head insn" true (r.Db.insn = Insn.Movi (Reg.R0, 139));
  match r.Db.fallthrough with
  | Some next ->
      Alcotest.(check bool) "tail insn" true ((Db.row db next).Db.insn = Insn.Sys 0);
      Alcotest.(check (option int)) "tail open" None (Db.row db next).Db.fallthrough
  | None -> Alcotest.fail "chain not linked"

let test_splice_out () =
  let db = fresh () in
  let a = Db.add_insn db Insn.Nop in
  let b = Db.add_insn db (Insn.Movi (Reg.R1, 1)) in
  let c = Db.add_insn db Insn.Ret in
  Db.set_fallthrough db a (Some b);
  Db.set_fallthrough db b (Some c);
  let j = Db.add_insn db (Insn.Jmp (Insn.Near, 0)) in
  Db.set_target db j (Some b);
  Db.splice_out db b;
  Alcotest.(check (option int)) "a skips to c" (Some c) (Db.row db a).Db.fallthrough;
  Alcotest.(check (option int)) "jump redirected" (Some c) (Db.row db j).Db.target;
  Alcotest.(check bool) "b gone" true (match Db.row db b with exception Not_found -> true | _ -> false)

let test_replace () =
  let db = fresh () in
  let a = Db.add_insn db Insn.Nop in
  Db.replace db a Insn.Halt;
  Alcotest.(check bool) "replaced" true ((Db.row db a).Db.insn = Insn.Halt)

let test_funcs () =
  let db = fresh () in
  let e = Db.add_insn db Insn.Nop in
  let fid = Db.add_func db ~fname:"f" ~entry:e in
  Db.set_func db e fid;
  Alcotest.(check int) "one function" 1 (List.length (Db.funcs db));
  Alcotest.(check (option int)) "membership" (Some fid) (Db.row db e).Db.func

let test_added_sections_and_vaddr () =
  let db = fresh () in
  let v1 = Db.next_free_vaddr db in
  Alcotest.(check int) "page aligned" 0 (v1 mod 4096);
  Db.add_section db (Zelf.Section.make ~name:".z" ~kind:Zelf.Section.Data ~vaddr:v1 (Bytes.make 100 'x'));
  let v2 = Db.next_free_vaddr db in
  Alcotest.(check bool) "moves past added" true (v2 >= v1 + 100);
  Alcotest.(check int) "listed" 1 (List.length (Db.added_sections db))

let test_pin_prologue_validation () =
  let db = fresh () in
  Db.set_pin_prologue db [ Insn.Land ];
  Alcotest.(check bool) "accepted" true (Db.pin_prologue db = [ Insn.Land ]);
  Alcotest.(check bool) "control flow rejected" true
    (try
       Db.set_pin_prologue db [ Insn.Jmp (Insn.Near, 0) ];
       false
     with Invalid_argument _ -> true)

let test_marked_pins () =
  let db = fresh () in
  Alcotest.(check bool) "unmarked" false (Db.pin_is_marked db 0x1000);
  Db.mark_pin db 0x1000;
  Alcotest.(check bool) "marked" true (Db.pin_is_marked db 0x1000)

let test_dump_contains_rows () =
  let db = fresh () in
  let a = Db.add_insn ~orig_addr:0x1000 db (Insn.Movi (Reg.R0, 7)) in
  Db.pin db a 0x1000;
  Db.set_entry db a;
  let s = Irdb.Dump.to_string db in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions insn" true (contains s "movi r0, 0x7");
  Alcotest.(check bool) "mentions pin" true (contains s "0x1000");
  Alcotest.(check bool) "mentions entry" true (contains s "entry: 0")

let suite =
  [
    Alcotest.test_case "add/row" `Quick test_add_and_row;
    Alcotest.test_case "links" `Quick test_links;
    Alcotest.test_case "pin uniqueness" `Quick test_pin_unique;
    Alcotest.test_case "insert_before steals identity" `Quick test_insert_before_steals_identity;
    Alcotest.test_case "insert_after" `Quick test_insert_after;
    Alcotest.test_case "append_chain" `Quick test_append_chain;
    Alcotest.test_case "splice_out" `Quick test_splice_out;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "funcs" `Quick test_funcs;
    Alcotest.test_case "added sections" `Quick test_added_sections_and_vaddr;
    Alcotest.test_case "pin prologue validation" `Quick test_pin_prologue_validation;
    Alcotest.test_case "marked pins" `Quick test_marked_pins;
    Alcotest.test_case "dump" `Quick test_dump_contains_rows;
  ]

let test_validate_clean_pipeline_and_transforms () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let check_transform name transforms =
    let ir = Zipr.Ir_construction.build binary in
    Zipr.Transform.apply_all transforms ir.Zipr.Ir_construction.db;
    match Db.validate ir.Zipr.Ir_construction.db with
    | [] -> ()
    | issues -> Alcotest.failf "%s: %s" name (String.concat "; " issues)
  in
  check_transform "null" [ Transforms.Null.transform ];
  check_transform "cfi" [ Transforms.Cfi.transform ];
  check_transform "canary" [ Transforms.Canary.transform ];
  check_transform "stack-pad" [ Transforms.Stack_pad.transform ];
  check_transform "shadow-stack" [ Transforms.Shadow_stack.transform ];
  check_transform "stirring" [ Transforms.Stirring.transform ];
  check_transform "nop-pad" [ Transforms.Nop_pad.transform ];
  check_transform "jumptable-rewrite" [ Transforms.Jumptable_rewrite.transform ]

let test_validate_detects_breakage () =
  let db = fresh () in
  let a = Db.add_insn db (Insn.Movi (Reg.R0, 1)) in
  Db.set_fallthrough db a (Some 999);
  Alcotest.(check bool) "dead link flagged" true (Db.validate db <> [])

let suite =
  suite
  @ [
      Alcotest.test_case "validate pipeline+transforms" `Quick
        test_validate_clean_pipeline_and_transforms;
      Alcotest.test_case "validate detects breakage" `Quick test_validate_detects_breakage;
    ]
