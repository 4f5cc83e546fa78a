(* Tests for the security transforms. *)

module Vm = Zvm.Vm
module Insn = Zvm.Insn

let rewrite_with transforms binary =
  (Zipr.Pipeline.rewrite ~transforms binary).Zipr.Pipeline.rewritten

let run ?(input = "") binary = Zelf.Image.boot binary ~input

let check_same ~name ~inputs orig rewritten =
  List.iter
    (fun input ->
      let a = run ~input orig and b = run ~input rewritten in
      Alcotest.(check string) (name ^ " output") a.Vm.output b.Vm.output;
      Alcotest.(check string) (name ^ " status") (Vm.stop_to_string a.Vm.stop)
        (Vm.stop_to_string b.Vm.stop))
    inputs

(* -- CFI -- *)

let test_cfi_preserves_functionality () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let rw = rewrite_with [ Transforms.Cfi.transform ] binary in
  check_same ~name:"cfi dispatch" ~inputs:[ "012f0f1q"; "z9q"; "" ] binary rw

let test_cfi_blocks_return_hijack () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let exploit = Testprogs.vuln_exploit () in
  (* The exploit must work on the original... *)
  let orig_result = run ~input:exploit binary in
  Alcotest.(check bool) "original exploited" true
    (orig_result.Vm.stop = Vm.Exited 42
    ||
    let s = orig_result.Vm.output in
    let rec scan i = i + 4 <= String.length s && (String.sub s i 4 = "PWN!" || scan (i + 1)) in
    scan 0);
  (* ...and on the Null-rewritten binary (rewriting alone is no defense)... *)
  let null_rw = rewrite_with [ Transforms.Null.transform ] binary in
  let null_result = run ~input:exploit null_rw in
  Alcotest.(check bool) "null-rewritten still exploited" true (null_result.Vm.stop = Vm.Exited 42);
  (* ...but be stopped by CFI with the safe-termination status. *)
  let cfi_rw = rewrite_with [ Transforms.Cfi.transform ] binary in
  let cfi_result = run ~input:exploit cfi_rw in
  Alcotest.(check bool) "CFI blocks" true
    (cfi_result.Vm.stop = Vm.Exited Transforms.Cfi.violation_status);
  Alcotest.(check bool) "no marker leaked" true
    (let s = cfi_result.Vm.output in
     let rec scan i = i + 4 <= String.length s && (String.sub s i 4 = "PWN!" || scan (i + 1)) in
     not (scan 0))

let test_cfi_benign_vuln_input_ok () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let cfi_rw = rewrite_with [ Transforms.Cfi.transform ] binary in
  check_same ~name:"cfi benign" ~inputs:[ "\x08payload!" ] binary cfi_rw

let test_cfi_hidden_code_still_runs () =
  (* Indirect jumps into fixed (ambiguous) regions must pass the range
     whitelist. *)
  let binary, _ = Testprogs.island_binary () in
  let cfi_rw = rewrite_with [ Transforms.Cfi.transform ] binary in
  check_same ~name:"cfi island" ~inputs:[ "" ] binary cfi_rw

(* -- Canary -- *)

let test_canary_preserves_functionality () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let rw = rewrite_with [ Transforms.Canary.transform ] binary in
  check_same ~name:"canary fib" ~inputs:[ "\x05"; "\x0b" ] binary rw

let test_canary_blocks_overflow () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Canary.transform ] binary in
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) "canary trips" true
    (result.Vm.stop = Vm.Exited Transforms.Canary.violation_status)

let test_canary_seed_changes_cookie () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let rw1 = rewrite_with [ Transforms.Canary.make ~seed:1 () ] binary in
  let rw2 = rewrite_with [ Transforms.Canary.make ~seed:2 () ] binary in
  Alcotest.(check bool) "diversified binaries differ" true
    ((Zelf.Binary.text rw1).Zelf.Section.data <> (Zelf.Binary.text rw2).Zelf.Section.data)

(* -- Stack padding -- *)

let test_stack_pad_preserves_functionality () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Stack_pad.transform ] binary in
  check_same ~name:"stack pad benign" ~inputs:[ "\x05hello" ] binary rw

let test_stack_pad_displaces_exploit () =
  (* The exploit's return-address offset was computed for the unpadded
     frame; after padding it must no longer take control. *)
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Stack_pad.transform ] binary in
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) "exploit misses" true (result.Vm.stop <> Vm.Exited 42)

(* -- Stirring -- *)

let test_stirring_preserves_functionality () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let config =
    { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = Zipr.Placement.random }
  in
  let r = Zipr.Pipeline.rewrite ~config ~transforms:[ Transforms.Stirring.transform ] binary in
  check_same ~name:"stirring" ~inputs:[ "012f0f1q" ] binary r.Zipr.Pipeline.rewritten

let test_stirring_fragments_dollops () =
  let binary, _ = Testprogs.assemble (Testprogs.big_program ~nfuncs:20 ()) in
  let count transforms =
    let r = Zipr.Pipeline.rewrite ~transforms binary in
    r.Zipr.Pipeline.stats.Zipr.Reassemble.dollops_placed
  in
  let plain = count [ Transforms.Null.transform ] in
  let stirred = count [ Transforms.Stirring.make ~p:1.0 ~seed:3 () ] in
  Alcotest.(check bool)
    (Printf.sprintf "more dollops when stirred (%d > %d)" stirred plain)
    true (stirred > plain)

(* -- Profile counting -- *)

let test_profile_count_counts () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let handle = Transforms.Profile_count.make () in
  let r = Zipr.Pipeline.rewrite ~transforms:[ handle.Transforms.Profile_count.transform ] binary in
  let rewritten = r.Zipr.Pipeline.rewritten in
  (* fib(7): the loop body block must execute 7 times. *)
  let vm = Zelf.Image.vm_of rewritten ~input:"\x07" in
  let result = Zvm.Vm.run vm in
  Alcotest.(check bool) "still works" true (result.Vm.stop = Vm.Exited 0);
  let slots = handle.Transforms.Profile_count.slots () in
  Alcotest.(check bool) "instrumented blocks" true (List.length slots >= 3);
  let counts =
    List.map (fun (_, addr) -> Transforms.Profile_count.read_counter (Zvm.Vm.mem vm) ~addr) slots
  in
  Alcotest.(check bool) "some block ran 7 times" true (List.mem 7 counts);
  Alcotest.(check bool) "entry ran once" true (List.mem 1 counts)

(* -- Composition -- *)

let test_stack_pad_then_cfi_compose () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Stack_pad.transform; Transforms.Cfi.transform ] binary in
  check_same ~name:"composed benign" ~inputs:[ "\x05hello" ] binary rw;
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) "composed blocks exploit" true (result.Vm.stop <> Vm.Exited 42)

(* -- Frame analysis -- *)

(* Five hand-built functions, one per fact: [plain] is eligible, [loop]
   branches back to its entry, [escape] jumps into [plain], [pinned] has
   a pinned non-entry member, and [entered] is fallen into from a row
   of no function. *)
let test_frame_facts () =
  let module Db = Irdb.Db in
  let db =
    Db.create
      ~orig:
        (Zelf.Binary.create ~entry:0x1000
           [ Zelf.Section.make ~name:".text" ~kind:Zelf.Section.Text ~vaddr:0x1000 (Bytes.make 64 '\x90') ])
      ()
  in
  let func name insns =
    let ids = List.map (Db.add_insn db) insns in
    let rec link = function
      | a :: (b :: _ as rest) ->
          if Insn.has_fallthrough (Db.row db a).Db.insn then Db.set_fallthrough db a (Some b);
          link rest
      | _ -> ()
    in
    link ids;
    let fid = Db.add_func db ~fname:name ~entry:(List.hd ids) in
    List.iter (fun id -> Db.set_func db id fid) ids;
    ids
  in
  let plain = func "plain" [ Insn.Nop; Insn.Ret ] in
  let loop = func "loop" [ Insn.Nop; Insn.Jcc (Zvm.Cond.Ne, Insn.Near, 0); Insn.Ret ] in
  Db.set_target db (List.nth loop 1) (Some (List.hd loop));
  let escape = func "escape" [ Insn.Jmp (Insn.Near, 0) ] in
  Db.set_target db (List.hd escape) (Some (List.nth plain 1));
  let pinned = func "pinned" [ Insn.Nop; Insn.Ret ] in
  Db.pin db (List.nth pinned 1) 0x1010;
  let entered = func "entered" [ Insn.Nop; Insn.Ret ] in
  let stub = Db.add_insn db Insn.Nop in
  Db.set_fallthrough db stub (Some (List.hd entered));
  let frames = Transforms.Frame.analyse db in
  let facts (f : Transforms.Frame.func) =
    Printf.sprintf "%s members=%d rets=%d loop=%b ft=%b escapes=%b secondary=%b eligible=%b"
      f.Transforms.Frame.func.Db.fname (List.length f.Transforms.Frame.members)
      (List.length f.Transforms.Frame.sites) f.Transforms.Frame.loop_head
      f.Transforms.Frame.fallthrough_target f.Transforms.Frame.escapes
      f.Transforms.Frame.secondary_entry (Transforms.Frame.eligible f)
  in
  Alcotest.(check (list string)) "facts"
    [
      "plain members=2 rets=1 loop=false ft=false escapes=false secondary=false eligible=true";
      "loop members=3 rets=1 loop=true ft=false escapes=false secondary=false eligible=false";
      "escape members=1 rets=0 loop=false ft=false escapes=true secondary=false eligible=false";
      "pinned members=2 rets=1 loop=false ft=false escapes=false secondary=true eligible=true";
      "entered members=2 rets=1 loop=false ft=true escapes=false secondary=false eligible=false";
    ]
    (List.map facts frames);
  let first = List.hd frames in
  Alcotest.(check (list int)) "membership" plain first.Transforms.Frame.members;
  Alcotest.(check (list int)) "rets" [ List.nth plain 1 ]
    (List.map (fun (s : Transforms.Frame.site) -> s.Transforms.Frame.ret) first.Transforms.Frame.sites)

(* CFI's [call ret_check] sits directly in front of each [ret]; a later
   frame transform must put its epilogue in front of that guard, or the
   guard reads the pad slot or the cookie as the return address. *)
let test_cfi_then_frame_compose ~name frame_transform () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Cfi.transform; frame_transform ] binary in
  check_same ~name:("cfi then " ^ name ^ " benign") ~inputs:[ "\x05hello"; "\x08payload!" ] binary rw;
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) ("cfi then " ^ name ^ " blocks exploit") true
    (result.Vm.stop <> Vm.Exited 42
    &&
    let s = result.Vm.output in
    let rec scan i = i + 4 <= String.length s && (String.sub s i 4 = "PWN!" || scan (i + 1)) in
    not (scan 0))

let test_transform_registry () =
  (* Registration is first-come; the shipped transforms self-describe. *)
  Alcotest.(check bool) "null named" true (Transforms.Null.transform.Zipr.Transform.name = "null");
  Alcotest.(check bool) "cfi named" true (Transforms.Cfi.transform.Zipr.Transform.name = "cfi")

let suite =
  [
    Alcotest.test_case "cfi preserves" `Quick test_cfi_preserves_functionality;
    Alcotest.test_case "cfi blocks hijack" `Quick test_cfi_blocks_return_hijack;
    Alcotest.test_case "cfi benign vuln input" `Quick test_cfi_benign_vuln_input_ok;
    Alcotest.test_case "cfi hidden code" `Quick test_cfi_hidden_code_still_runs;
    Alcotest.test_case "canary preserves" `Quick test_canary_preserves_functionality;
    Alcotest.test_case "canary blocks" `Quick test_canary_blocks_overflow;
    Alcotest.test_case "canary diversity" `Quick test_canary_seed_changes_cookie;
    Alcotest.test_case "stack pad preserves" `Quick test_stack_pad_preserves_functionality;
    Alcotest.test_case "stack pad displaces" `Quick test_stack_pad_displaces_exploit;
    Alcotest.test_case "stirring preserves" `Quick test_stirring_preserves_functionality;
    Alcotest.test_case "stirring fragments" `Quick test_stirring_fragments_dollops;
    Alcotest.test_case "profile count" `Quick test_profile_count_counts;
    Alcotest.test_case "pad+cfi compose" `Quick test_stack_pad_then_cfi_compose;
    Alcotest.test_case "cfi+pad compose" `Quick
      (test_cfi_then_frame_compose ~name:"stack pad" Transforms.Stack_pad.transform);
    Alcotest.test_case "cfi+canary compose" `Quick
      (test_cfi_then_frame_compose ~name:"canary" Transforms.Canary.transform);
    Alcotest.test_case "frame facts" `Quick test_frame_facts;
    Alcotest.test_case "registry" `Quick test_transform_registry;
  ]

(* -- Shadow stack -- *)

let test_shadow_stack_preserves_functionality () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let rw = rewrite_with [ Transforms.Shadow_stack.transform ] binary in
  check_same ~name:"shadow dispatch" ~inputs:[ "012f0f1q"; "" ] binary rw

let test_shadow_stack_blocks_return_hijack () =
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw = rewrite_with [ Transforms.Shadow_stack.transform ] binary in
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) "shadow stack trips" true
    (result.Vm.stop = Vm.Exited Transforms.Shadow_stack.violation_status)

let test_shadow_stack_handles_recursion () =
  (* A self-recursive function exercises shadow push/pop depth. *)
  let b = Zasm.Builder.create ~entry:"main" () in
  Zasm.Builder.label b "main";
  Zasm.Builder.insn b (Insn.Movi (Zvm.Reg.R0, 9));
  Zasm.Builder.call b "count";
  Zasm.Builder.insn b (Insn.Sys 0);
  Zasm.Builder.label b "count";
  Zasm.Builder.insn b (Insn.Cmpi (Zvm.Reg.R0, 0));
  Zasm.Builder.jcc b Zvm.Cond.Eq "done";
  Zasm.Builder.insn b (Insn.Alui (Insn.Subi, Zvm.Reg.R0, 1));
  Zasm.Builder.call b "count";
  Zasm.Builder.insn b (Insn.Alui (Insn.Addi, Zvm.Reg.R0, 1));
  Zasm.Builder.label b "done";
  Zasm.Builder.insn b (Insn.Ret);
  let binary, _ = Zasm.Builder.assemble_exn b in
  let rw = rewrite_with [ Transforms.Shadow_stack.transform ] binary in
  check_same ~name:"shadow recursion" ~inputs:[ "" ] binary rw

(* -- Nop padding -- *)

let test_nop_pad_preserves_and_diversifies () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let rw1 = rewrite_with [ Transforms.Nop_pad.make ~seed:1 () ] binary in
  let rw2 = rewrite_with [ Transforms.Nop_pad.make ~seed:2 () ] binary in
  check_same ~name:"nop pad" ~inputs:[ "012f0f1q" ] binary rw1;
  Alcotest.(check bool) "layouts differ" true
    ((Zelf.Binary.text rw1).Zelf.Section.data <> (Zelf.Binary.text rw2).Zelf.Section.data)

let test_nop_pad_composes_with_cfi () =
  (* Padding first, CFI second: return points keep their markers. *)
  let binary, _ = Testprogs.assemble (Testprogs.vuln_program ()) in
  let rw =
    rewrite_with [ Transforms.Nop_pad.make ~seed:4 (); Transforms.Cfi.transform ] binary
  in
  check_same ~name:"pad+cfi benign" ~inputs:[ "\x05hello" ] binary rw;
  let result = run ~input:(Testprogs.vuln_exploit ()) rw in
  Alcotest.(check bool) "still blocks" true
    (result.Vm.stop = Vm.Exited Transforms.Cfi.violation_status)

let suite =
  suite
  @ [
      Alcotest.test_case "shadow stack preserves" `Quick test_shadow_stack_preserves_functionality;
      Alcotest.test_case "shadow stack blocks" `Quick test_shadow_stack_blocks_return_hijack;
      Alcotest.test_case "shadow stack recursion" `Quick test_shadow_stack_handles_recursion;
      Alcotest.test_case "nop pad diversity" `Quick test_nop_pad_preserves_and_diversifies;
      Alcotest.test_case "nop pad + cfi" `Quick test_nop_pad_composes_with_cfi;
    ]
