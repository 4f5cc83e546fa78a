(* Quickstart: author a program, rewrite it, prove nothing changed.

   Run with:  dune exec examples/quickstart.exe *)

let source =
  {|
; A tiny network service: reads bytes, replies with their doubled value,
; quits on 'q'.  Uses a jump table so the rewriter has indirect control
; flow to preserve.
.section rodata 0x200000
table:
    .word reply_double
    .word reply_triple
.section bss 0x400000
buf:
    .space 16
.section text 0x10000
main:
loop:
    movi r0, 0
    movi r1, buf
    movi r2, 1
    sys 2                    ; receive one byte
    cmpi r0, 0
    jeq done
    movi r1, buf
    load8 r3, [r1]
    cmpi r3, 'q'
    jeq done
    mov r4, r3
    andi r4, 1               ; odd bytes triple, even bytes double
    jmpt r4, table
reply_double:
    add r3, r3
    jmp reply
reply_triple:
    mov r5, r3
    add r3, r3
    add r3, r5
reply:
    movi r1, buf
    store8 [r1], r3
    movi r0, 1
    movi r2, 1
    sys 1                    ; transmit the result byte
    jmp loop
done:
    movi r0, 0
    sys 0
|}

let () =
  (* 1. Assemble. *)
  let binary, _symbols =
    match Zasm.Parser.assemble_string source with
    | Ok r -> r
    | Error e -> failwith e
  in
  Format.printf "original binary: %d bytes on disk@." (Zelf.Binary.file_size binary);
  (* 2. Rewrite with the Null transformation: pure rewriting overhead. *)
  let result = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] binary in
  let rewritten = result.Zipr.Pipeline.rewritten in
  Format.printf "rewritten binary: %d bytes on disk@." (Zelf.Binary.file_size rewritten);
  Format.printf "reassembly: %a@." Zipr.Reassemble.pp_stats result.Zipr.Pipeline.stats;
  (* 3. Run both on the same input and compare transcripts. *)
  let input = "\x02\x03\x0aq" in
  let orig = Zelf.Image.boot binary ~input in
  let rewr = Zelf.Image.boot rewritten ~input in
  Format.printf "original output:  %S (%s)@." orig.Zvm.Vm.output
    (Zvm.Vm.stop_to_string orig.Zvm.Vm.stop);
  Format.printf "rewritten output: %S (%s)@." rewr.Zvm.Vm.output
    (Zvm.Vm.stop_to_string rewr.Zvm.Vm.stop);
  assert (Zipr.Verify.compare_runs ~orig ~rewritten:rewr = Zipr.Verify.Equivalent);
  Format.printf "transcripts identical: the rewrite is semantics-preserving.@."
