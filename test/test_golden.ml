(* Golden IR snapshots: any drift in disassembly output (verdicts,
   boundaries, tally, warnings, pins or rows) changes the digest of the
   snapshot that captures it.  The recorded list lives in
   golden_snapshots.txt, which the build copies next to the test
   executable. *)

let digest ?infer binary =
  Digest.to_hex (Digest.string (Zipr.Ir_construction.snapshot (Zipr.Ir_construction.build ?infer binary)))

let computed () =
  List.init 50 (fun i ->
      let it = Workloads.Scale.generate_one ~seed:2016 i in
      Printf.sprintf "scale %s %s" it.Workloads.Scale.name (digest it.Workloads.Scale.binary))
  @ List.init Cgc.Corpus.size (fun i ->
        let e = Cgc.Corpus.entry ~pollers_per_cb:0 i in
        Printf.sprintf "cgc %s %s" e.Cgc.Corpus.name (digest e.Cgc.Corpus.binary))
  @ List.map
      (fun (s : Workloads.Adversarial.spec) ->
        Printf.sprintf "adversarial %s %s" s.Workloads.Adversarial.name
          (digest ~infer:true s.Workloads.Adversarial.binary))
      (Workloads.Adversarial.all ())

let recorded () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) "golden_snapshots.txt" in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_snapshots_match () =
  Alcotest.(check (list string)) "snapshot digests" (recorded ()) (computed ())

let suite = [ Alcotest.test_case "snapshot digests match the record" `Quick test_snapshots_match ]
