(* cgc-cfi-warm: the paper's 62-CB evaluation corpus (Figs 4-7),
   rewritten with CFI by a default-config daemon.  Set-up sends each CB
   once — cold builds that store IR snapshots — and the timed phase
   repeats the corpus in passes, every request a snapshot-cache hit.
   The only workload that measures the run time and memory of the
   generated code, and the one where snapshot restore is the largest
   layer.

   The corpus is the fixed evaluation corpus (master seed 2016): the
   seed orders each pass.  A seed-dependent corpus would move the
   overhead means by more than any bound a later change could be held
   to (memory overhead ranged 2.9-5.2% over four corpus seeds). *)

(* Requests per second the timed phase is sized for, in whole passes of
   at least 1000 requests; the count is a function of the arguments
   only, never of elapsed time. *)
let nominal_rate = 100.0

let spec ~seed ~seconds =
  let entries = Array.of_list (Cgc.Corpus.build ()) in
  let n = Array.length entries in
  let request i =
    let e = entries.(i) in
    {
      Served.key = i;
      name = e.Cgc.Corpus.name;
      raw = Bytes.to_string (Zelf.Binary.serialize e.Cgc.Corpus.binary);
      transforms = [ "cfi" ];
    }
  in
  let reqs = Array.init n request in
  let passes =
    max 17 (int_of_float (ceil (nominal_rate *. float_of_int seconds /. float_of_int n)))
  in
  let rng = Zipr_util.Rng.create seed in
  let pass () =
    let order = Array.init n Fun.id in
    Zipr_util.Rng.shuffle rng order;
    Array.to_list (Array.map (Array.get reqs) order)
  in
  {
    Served.delta = false;
    warm = Array.to_list reqs;
    timed = List.concat (List.init passes (fun _ -> pass ()));
    check =
      (fun q payload ->
        let orig_bytes = String.length q.Served.raw in
        Some (Checks.cgc_check entries.(q.Served.key) ~orig_bytes payload));
    stand_in = None;
    (* A set-up is 62 cold builds, dearer than in versioned-delta, so
       every set-up's daemon serves a phase. *)
    setups = 4;
    phases = 4;
  }
