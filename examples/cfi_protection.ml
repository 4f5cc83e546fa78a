(* The CGC story in one program: a vulnerable service, a working exploit,
   and a CFI rewrite that stops it without breaking the service.

   Run with:  dune exec examples/cfi_protection.exe *)

let () =
  (* A challenge binary with a stack-overflow vulnerability, straight from
     the corpus generator. *)
  let binary, meta = Cgc.Cb_gen.generate ~seed:2016 Cgc.Cb_gen.default_profile in
  Format.printf "challenge binary: %d bytes, commands %s@."
    (Zelf.Binary.file_size binary)
    (String.concat "" (List.map (String.make 1) meta.Cgc.Cb_gen.commands));
  (* Its pollers (functionality probes). *)
  let pollers = Cgc.Poller.generate meta ~seed:1 ~count:10 in
  (* 1. The proof of vulnerability hijacks control flow on the original. *)
  (match Cgc.Pov.attempt binary meta with
  | Some Cgc.Pov.Exploited -> Format.printf "PoV vs original: EXPLOITED (shellcode ran)@."
  | Some (Cgc.Pov.Blocked w) -> Format.printf "PoV vs original: blocked?! %s@." w
  | Some (Cgc.Pov.Inconclusive w) -> Format.printf "PoV vs original: inconclusive: %s@." w
  | None -> Format.printf "no PoV@.");
  (* 2. Rewriting alone is not a defense. *)
  let null = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Null.transform ] binary in
  (match Cgc.Pov.attempt null.Zipr.Pipeline.rewritten meta with
  | Some Cgc.Pov.Exploited -> Format.printf "PoV vs Null rewrite: still EXPLOITED@."
  | Some outcome ->
      Format.printf "PoV vs Null rewrite: %s@."
        (match outcome with Cgc.Pov.Blocked w -> w | Cgc.Pov.Inconclusive w -> w | _ -> "")
  | None -> ());
  (* 3. The CFI transform stops the hijack... *)
  let cfi = Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] binary in
  (match Cgc.Pov.attempt cfi.Zipr.Pipeline.rewritten meta with
  | Some (Cgc.Pov.Blocked why) -> Format.printf "PoV vs Zipr+CFI: BLOCKED (%s)@." why
  | Some Cgc.Pov.Exploited -> Format.printf "PoV vs Zipr+CFI: exploited?!@."
  | _ -> ());
  (* 4. ...while preserving functionality and staying inside the CGC
     performance envelope. *)
  let eval =
    Cgc.Score.evaluate ~name:"demo" ~orig:binary
      ~orig_runs:(List.map (Cgc.Poller.run binary) pollers)
      ~rewritten:cfi.Zipr.Pipeline.rewritten ~meta ~pollers
  in
  Format.printf "with CFI: %a@." Cgc.Score.pp_eval eval;
  Format.printf "CFE-style score: %.3f (a blocked PoV doubles the availability score)@."
    (Cgc.Score.total eval)
