(* Code-layout diversity: the same program rewritten under different
   seeds yields differently arranged — but behaviourally identical —
   binaries, the moving-target defense the paper describes as a natural
   by-product of unconstrained references.

   Run with:  dune exec examples/layout_diversity.exe *)

let () =
  let binary, meta = Cgc.Cb_gen.generate ~seed:7 Cgc.Cb_gen.default_profile in
  let pollers = Cgc.Poller.generate meta ~seed:3 ~count:5 in
  let variants =
    List.map
      (fun seed ->
        let config =
          { Zipr.Pipeline.default_config with Zipr.Pipeline.placement = Zipr.Placement.random; seed }
        in
        let r =
          Zipr.Pipeline.rewrite ~config
            ~transforms:[ Transforms.Stirring.make ~p:0.8 ~seed () ]
            binary
        in
        (seed, r.Zipr.Pipeline.rewritten))
      [ 1; 2; 3; 4; 5 ]
  in
  (* All variants behave identically to the original (run once)... *)
  let orig_runs = List.map (Cgc.Poller.run binary) pollers in
  List.iter
    (fun (seed, v) ->
      let chk, _ = Cgc.Poller.replay ~orig:orig_runs ~rewritten:v pollers in
      Format.printf "variant %d: %d/%d pollers pass, %d bytes@." seed chk.Cgc.Poller.passed
        chk.Cgc.Poller.total (Zelf.Binary.file_size v))
    variants;
  (* ...yet no two share a text layout. *)
  let texts = List.map (fun (_, v) -> (Zelf.Binary.text v).Zelf.Section.data) variants in
  let distinct = List.length (List.sort_uniq compare texts) in
  Format.printf "distinct text layouts: %d of %d@." distinct (List.length variants);
  (* Show where the first instructions of each variant diverge. *)
  List.iteri
    (fun i t ->
      Format.printf "variant %d text[0..24] = %s@." (i + 1)
        (Zipr_util.Hex.of_bytes (Bytes.sub t 0 24)))
    texts
