(* The cold IR path: where linear sweep and recursive traversal agree on
   every byte, [Aggregate.run] takes the aggregate from the traversal and
   skips the superset decode and the combine.  These tests hold that
   shortcut to the three-source composition it replaces (snapshot for
   snapshot, with the inference refiner off here and on in the infer
   suite), check which inputs take it, and cover the large workload
   class. *)

module Agg = Disasm.Aggregate
module Ir = Zipr.Ir_construction
module Scale = Workloads.Scale
module Versioned = Workloads.Versioned

(* The reference: every primary source, combined under the four-case
   rule, with the inference pass as a refiner under [~infer]. *)
let three_source ~infer binary =
  let lin = Disasm.Linear.sweep binary and rec_ = Disasm.Recursive.traverse binary in
  let sources =
    Disasm.[ Source.of_linear lin; Superset.run binary ~avoid:rec_; Source.of_recursive rec_ ]
  in
  let agg =
    if not infer then Agg.combine_sources binary sources
    else
      let inf = Disasm.Infer.run binary ~avoid:rec_ in
      let agg = Agg.combine_sources binary (sources @ [ inf.Disasm.Infer.source ]) in
      { agg with Agg.pin_hints = inf.Disasm.Infer.pin_hints }
  in
  Ir.build_from_aggregate binary agg

let same_snapshot ~infer (what, binary) =
  Alcotest.(check string)
    (Printf.sprintf "%s, infer %b: build = three sources" what infer)
    (Ir.snapshot (three_source ~infer binary))
    (Ir.snapshot (Ir.build ~infer binary))

let same_snapshots member = List.iter (fun infer -> same_snapshot ~infer member) [ false; true ]

let versions project = Versioned.generate ~seed:project ~versions:4 ()
let cb i = (Printf.sprintf "cb %d" i, (Cgc.Corpus.entry ~pollers_per_cb:0 i).Cgc.Corpus.binary)

let frag seed =
  ( Printf.sprintf "frag_like %d" seed,
    (Workloads.Synthetic.frag_like ~seed ~tests:0 ()).Workloads.Synthetic.binary )

(* One case draws a member of every class: a Scale index, a CB, a
   Versioned (project, version), an adversarial class and a frag_like
   seed.  The infer suite runs it with [~infer:true]. *)
let prop_build_equals_three_sources ~infer ~name =
  QCheck.Test.make ~count:12 ~name
    QCheck.(
      quad (0 -- 999) (0 -- (Cgc.Corpus.size - 1)) (pair (0 -- 7) (0 -- 3))
        (pair (0 -- 4) (oneofl [ 404; 405 ])))
    (fun (s, c, (p, v), (a, f)) ->
      List.iter (same_snapshot ~infer)
        [
          (Printf.sprintf "scale %d" s, (Scale.generate_one ~seed:2016 s).Scale.binary);
          cb c;
          (Printf.sprintf "versioned %d v%d" p v, (List.nth (versions p) v).Versioned.binary);
          ( Printf.sprintf "adversarial %d" a,
            (List.nth (Workloads.Adversarial.all ()) a).Workloads.Adversarial.binary );
          frag f;
        ];
      true)

(* -- which path ran: the [disasm.validated] count of [f]'s builds -- *)

let validated f =
  let sink = Obs.Tracer.create () in
  Obs.install sink;
  Fun.protect ~finally:Obs.disable (fun () ->
      f ();
      List.fold_left
        (fun acc (n, _, v) -> if n = "disasm.validated" then v else acc)
        0
        (Obs.Counters.snapshot (Obs.Tracer.counters sink)))

let takes_shortcut expected (what, binary) =
  Alcotest.(check int) (what ^ ": disasm.validated") (if expected then 1 else 0)
    (validated (fun () -> ignore (Ir.build binary)))

let test_which_path () =
  List.iter
    (fun (v : Versioned.version) -> takes_shortcut true (v.Versioned.name, v.Versioned.binary))
    (versions 3);
  List.iter (takes_shortcut false) (List.init Cgc.Corpus.size cb @ [ frag 404; frag 405 ])

(* -- the large workload class -- *)

let test_large_class () =
  let a = Scale.generate_large ~seed:1 0 and b = Scale.generate_large ~seed:1 0 in
  Alcotest.(check bool) "deterministic" true
    (Bytes.equal (Zelf.Binary.serialize a.Scale.binary) (Zelf.Binary.serialize b.Scale.binary));
  let len = (Zelf.Binary.text a.Scale.binary).Zelf.Section.size in
  Alcotest.(check bool) (Printf.sprintf "text >= 256 KiB (got %d)" len) true (len >= 256 * 1024);
  Alcotest.(check string) "name records the class" "lg000-large.zbf" a.Scale.name

let test_large_member () =
  let member = ("large member", (Scale.generate_large ~seed:1 0).Scale.binary) in
  takes_shortcut true member;
  same_snapshots member

let suite =
  [
    QCheck_alcotest.to_alcotest
      (prop_build_equals_three_sources ~infer:false ~name:"cold build = three-source composition");
    Alcotest.test_case "shortcut taken only where the sweeps agree" `Quick test_which_path;
    Alcotest.test_case "large class: >= 256 KiB text, deterministic" `Quick test_large_class;
    Alcotest.test_case "large member: shortcut = three sources" `Slow test_large_member;
  ]
