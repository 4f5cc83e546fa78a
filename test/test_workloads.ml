(* Integration tests over the large synthetic workloads (the E1
   robustness experiment, §IV-A, as a regression suite). *)

let check_workload ?(transforms = [ Transforms.Null.transform ]) (w : Workloads.Synthetic.spec) =
  let orig = w.Workloads.Synthetic.binary in
  let r = Zipr.Pipeline.rewrite ~transforms orig in
  let chk =
    Cgc.Poller.functional_check ~orig ~rewritten:r.Zipr.Pipeline.rewritten
      w.Workloads.Synthetic.test_suite
  in
  Alcotest.(check int)
    (w.Workloads.Synthetic.name ^ " test suite")
    chk.Cgc.Poller.total chk.Cgc.Poller.passed;
  (* Structural validation on top of the dynamic one. *)
  let report =
    Zipr.Verify.structural ~orig ~ir:r.Zipr.Pipeline.ir ~rewritten:r.Zipr.Pipeline.rewritten
  in
  if not (Zipr.Verify.ok report) then
    Alcotest.failf "%s: %a" w.Workloads.Synthetic.name Zipr.Verify.pp_report report

let test_libc_like () = check_workload (Workloads.Synthetic.libc_like ~tests:40 ())
let test_jvm_like () = check_workload (Workloads.Synthetic.jvm_like ~tests:20 ())
let test_apache_like () = check_workload (Workloads.Synthetic.apache_like ~tests:30 ())

let test_apache_pic () =
  check_workload (Workloads.Synthetic.apache_like ~pic:true ~tests:30 ())

let test_apache_with_cfi () =
  check_workload
    ~transforms:[ Transforms.Cfi.transform ]
    (Workloads.Synthetic.apache_like ~tests:20 ())

let test_libc_pov_blocked_by_cfi () =
  let w = Workloads.Synthetic.libc_like () in
  let r =
    Zipr.Pipeline.rewrite ~transforms:[ Transforms.Cfi.transform ] w.Workloads.Synthetic.binary
  in
  match Cgc.Pov.attempt r.Zipr.Pipeline.rewritten w.Workloads.Synthetic.meta with
  | Some (Cgc.Pov.Blocked _) -> ()
  | Some Cgc.Pov.Exploited -> Alcotest.fail "libc-like PoV not blocked"
  | other ->
      Alcotest.failf "unexpected outcome: %s"
        (match other with
        | None -> "no vuln"
        | Some (Cgc.Pov.Inconclusive w) -> w
        | _ -> "?")

let test_jvm_size_ratio () =
  (* The paper's libjvm is ~5x libc; the synthetic stand-ins keep a
     similar ratio so the throughput scaling experiment is meaningful. *)
  let libc = Workloads.Synthetic.libc_like ~tests:1 () in
  let jvm = Workloads.Synthetic.jvm_like ~tests:1 () in
  let size w = (Zelf.Binary.text w.Workloads.Synthetic.binary).Zelf.Section.size in
  let ratio = float_of_int (size jvm) /. float_of_int (size libc) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.1f in [2.5, 8]" ratio)
    true
    (ratio >= 2.5 && ratio <= 8.0)

(* Versions are a pure function of the seed, and v0 carries no edits. *)
let test_versioned_deterministic () =
  let module Versioned = Workloads.Versioned in
  let serialize b = Zelf.Binary.serialize b in
  let a = Versioned.generate ~seed:5 ~versions:3 () in
  let b = Versioned.generate ~seed:5 ~versions:3 () in
  List.iter2
    (fun (x : Versioned.version) (y : Versioned.version) ->
      Alcotest.(check bool)
        ("version " ^ x.Versioned.name ^ " reproducible")
        true
        (Bytes.equal (serialize x.Versioned.binary) (serialize y.Versioned.binary)))
    a b;
  let c = Versioned.generate ~seed:6 ~versions:3 () in
  Alcotest.(check bool) "seed changes bytes" false
    (Bytes.equal
       (serialize (List.hd a).Versioned.binary)
       (serialize (List.hd c).Versioned.binary));
  List.iteri
    (fun i (v : Versioned.version) ->
      Alcotest.(check bool)
        (Printf.sprintf "v%d edit list %s" i (if i = 0 then "empty" else "non-empty"))
        (i = 0)
        (v.Versioned.edits = []))
    a

let suite =
  [
    Alcotest.test_case "libc-like null" `Slow test_libc_like;
    Alcotest.test_case "jvm-like null" `Slow test_jvm_like;
    Alcotest.test_case "apache-like null" `Slow test_apache_like;
    Alcotest.test_case "apache-like pic" `Slow test_apache_pic;
    Alcotest.test_case "apache-like cfi" `Slow test_apache_with_cfi;
    Alcotest.test_case "libc-like pov vs cfi" `Slow test_libc_pov_blocked_by_cfi;
    Alcotest.test_case "jvm/libc size ratio" `Quick test_jvm_size_ratio;
    Alcotest.test_case "versioned corpus is deterministic" `Quick test_versioned_deterministic;
  ]
