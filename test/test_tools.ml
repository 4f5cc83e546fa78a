(* Tests for the tooling layer: post-rewrite verification and the one
   differential rule that decides whether a rewrite diverged. *)

let asm src =
  match Zasm.Parser.assemble_string src with
  | Ok (binary, _) -> binary
  | Error e -> Alcotest.failf "assemble: %s" e

(* -- The system-call trace every run records -- *)

let test_vm_records_syscalls () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let r = Zelf.Image.boot binary ~input:"\x05" in
  Alcotest.(check bool) "completed" true (r.Zvm.Vm.stop = Zvm.Vm.Exited 0);
  (* receive, transmit, terminate *)
  Alcotest.(check (list int)) "ordered numbers" [ 2; 1; 0 ] r.Zvm.Vm.syscalls;
  let bad = asm "main:\n    sys 2\n    sys 99\n" in
  Alcotest.(check (list int)) "a bad number is recorded" [ 2; 99 ]
    (Zelf.Image.boot bad ~input:"").Zvm.Vm.syscalls

(* -- Verify -- *)

let test_verify_accepts_good_rewrite () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] binary in
  let report =
    Zipr.Verify.full ~orig:binary ~ir:r.Zipr.Pipeline.ir ~rewritten:r.Zipr.Pipeline.rewritten
      ~inputs:[ "012q"; "f0f1q"; "" ] ()
  in
  if not (Zipr.Verify.ok report) then
    Alcotest.failf "unexpected issues: %a" Zipr.Verify.pp_report report;
  Alcotest.(check bool) "many checks ran" true (report.Zipr.Verify.checks_run > 20)

let test_verify_accepts_cfi_rewrite () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] binary in
  let report =
    Zipr.Verify.full ~orig:binary ~ir:r.Zipr.Pipeline.ir ~rewritten:r.Zipr.Pipeline.rewritten
      ~inputs:[ "012q" ] ()
  in
  if not (Zipr.Verify.ok report) then
    Alcotest.failf "unexpected issues: %a" Zipr.Verify.pp_report report

let test_verify_catches_corruption () =
  let binary, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let r = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] binary in
  let good = r.Zipr.Pipeline.rewritten in
  (* Corrupt a data section: the data-segment check must notice. *)
  let corrupted =
    Zelf.Binary.create ~entry:good.Zelf.Binary.entry
      (List.map
         (fun (s : Zelf.Section.t) ->
           if s.Zelf.Section.kind = Zelf.Section.Rodata then begin
             let d = Bytes.copy s.Zelf.Section.data in
             Bytes.set d 0 '\xff';
             Zelf.Section.make ~name:s.Zelf.Section.name ~kind:s.Zelf.Section.kind
               ~vaddr:s.Zelf.Section.vaddr d
           end
           else s)
         good.Zelf.Binary.sections)
  in
  let report = Zipr.Verify.structural ~orig:binary ~ir:r.Zipr.Pipeline.ir ~rewritten:corrupted in
  Alcotest.(check bool) "corruption flagged" false (Zipr.Verify.ok report)

let test_verify_catches_transcript_divergence () =
  let binary, _ = Testprogs.assemble (Testprogs.fib_program ()) in
  let other, _ = Testprogs.assemble (Testprogs.dispatch_program ()) in
  let report = Zipr.Verify.transcripts ~orig:binary ~rewritten:other [ "\x05" ] in
  Alcotest.(check bool) "divergence flagged" false (Zipr.Verify.ok report)

(* -- The differential rule (Zipr.Verify.compare_on) -- *)

(* Transmits [out] and exits with [status]; [pre] runs first. *)
let program ?(pre = "") ?(out = "a") ?(status = 0) () =
  asm
    (Printf.sprintf
       {|.section rodata 0x200000
msg:
    .asciiz "%s"
.section text 0x10000
main:
%s
    movi r0, 1
    movi r1, msg
    movi r2, 1
    sys 1
    movi r0, %d
    sys 0
|}
       out pre status)

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
        | Zipr.Verify.Equivalent -> "equivalent"
        | Zipr.Verify.Undecided -> "undecided"
        | Zipr.Verify.Diverged why -> "diverged: " ^ why))
    ( = )

let judge ?fuel orig rewritten = Zipr.Verify.compare_on ?fuel ~orig ~rewritten ""

let test_rule_equal_exits () =
  Alcotest.check verdict "moved code, same behaviour" Zipr.Verify.Equivalent
    (judge (program ()) (program ~pre:"    nop\n    nop" ()))

let test_rule_exit_status () =
  Alcotest.check verdict "status" (Zipr.Verify.Diverged "stop: exit 0 vs exit 1")
    (judge (program ()) (program ~status:1 ()))

let test_rule_output_byte () =
  Alcotest.check verdict "output" (Zipr.Verify.Diverged {|output: "a" vs "b"|})
    (judge (program ()) (program ~out:"b" ()))

let mem_fault = "    movi r1, 16\n    load r0, [r1]"

let test_rule_fault_same_kind () =
  let a = program ~pre:mem_fault () and b = program ~pre:("    nop\n" ^ mem_fault) () in
  let stop p = (Zelf.Image.boot p ~input:"").Zvm.Vm.stop in
  Alcotest.(check bool) "the fault pcs differ" false (Zvm.Vm.equal_stop (stop a) (stop b));
  Alcotest.check verdict "same kind" Zipr.Verify.Equivalent (judge a b)

let test_rule_fault_kinds () =
  Alcotest.check verdict "mem vs div" (Zipr.Verify.Diverged "stop: mem-fault vs div-fault")
    (judge (program ~pre:mem_fault ()) (program ~pre:"    movi r1, 0\n    div r0, r1" ()))

let test_rule_syscalls () =
  (* fdwait returns 0 and changes neither output nor status. *)
  Alcotest.check verdict "extra fdwait" (Zipr.Verify.Diverged "syscall trace: [1;0] vs [6;1;0]")
    (judge (program ()) (program ~pre:"    sys 6" ()))

(* Twenty turns of a loop whose body is [pad] extra no-ops longer. *)
let loop pad =
  program
    ~pre:
      (Printf.sprintf "    movi r3, 20\nloop:\n%s    subi r3, 1\n    cmpi r3, 0\n    jne loop"
         (String.concat "" (List.init pad (fun _ -> "    nop\n"))))
    ()

let test_rule_rewrite_budget () =
  let fuel = 100 in
  let retired p = (Zelf.Image.boot p ~input:"").Zvm.Vm.insns in
  Alcotest.(check bool) "the original fits its budget" true (retired (loop 0) < fuel);
  Alcotest.(check bool) "the rewrite retires more than it" true (retired (loop 3) > fuel);
  Alcotest.check verdict "within 2*fuel+4096" Zipr.Verify.Equivalent
    (judge ~fuel (loop 0) (loop 3));
  Alcotest.check verdict "past 2*fuel+4096" (Zipr.Verify.Diverged "stop: exit 0 vs hang")
    (judge ~fuel (loop 0) (program ~pre:"spin:\n    jmp spin" ()))

let test_rule_undecided () =
  Alcotest.check verdict "original hangs" Zipr.Verify.Undecided
    (judge ~fuel:1000 (program ~pre:"spin:\n    jmp spin" ()) (program ()))

let suite =
  [
    Alcotest.test_case "vm records syscalls" `Quick test_vm_records_syscalls;
    Alcotest.test_case "verify good rewrite" `Quick test_verify_accepts_good_rewrite;
    Alcotest.test_case "verify cfi rewrite" `Quick test_verify_accepts_cfi_rewrite;
    Alcotest.test_case "verify catches corruption" `Quick test_verify_catches_corruption;
    Alcotest.test_case "verify catches divergence" `Quick test_verify_catches_transcript_divergence;
    Alcotest.test_case "rule: equal exits pass" `Quick test_rule_equal_exits;
    Alcotest.test_case "rule: exit status diverges" `Quick test_rule_exit_status;
    Alcotest.test_case "rule: output byte diverges" `Quick test_rule_output_byte;
    Alcotest.test_case "rule: faults compare by kind" `Quick test_rule_fault_same_kind;
    Alcotest.test_case "rule: fault kinds diverge" `Quick test_rule_fault_kinds;
    Alcotest.test_case "rule: syscall trace diverges" `Quick test_rule_syscalls;
    Alcotest.test_case "rule: rewrite budget" `Quick test_rule_rewrite_budget;
    Alcotest.test_case "rule: original hang undecided" `Quick test_rule_undecided;
  ]
