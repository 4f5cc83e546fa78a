(* scale-cold: distinct Workloads.Scale members, Null transform, no
   caches, one in-process [Pipeline.rewrite_bytes] call each — the
   paper's cold path (§IV-A) on the fragmentation-heavy mix, where
   disassembly dominates and placement works on shattered text.

   The members are a fixed corpus and the seed orders them, so the
   deterministic metrics repeat exactly across seeds and the timed work
   is the same in every run (size overhead ranged 4.5-5.0% over
   seed-drawn corpora of 1000). *)

let transforms = [ Transforms.Null.transform ]

(* Members the timed phase is sized for per second; the count is a
   function of the arguments only, never of elapsed time. *)
let nominal_rate = 50

let count ~seconds = max 1000 (nominal_rate * seconds)
let corpus_seed = 2016

(* Members are generated a batch at a time, outside every timed
   section, so the inputs are never all resident at once. *)
let batch = 50

(* Set-up is a warm-up pass over a fixed list of members — the same for
   every seed, so set-up time does not move with the workload's draw —
   repeated, with the median reported.  There is no cache to fill: this
   is the cost of a process's first requests. *)
let warmup = 10
let warmup_seed = 2017
let setups = 9

type item = { index : int; name : string; orig : Zelf.Binary.t; raw : Bytes.t }

let item ~seed index =
  let it = Workloads.Scale.generate_one ~seed index in
  let orig = it.Workloads.Scale.binary in
  { index; name = it.Workloads.Scale.name; orig; raw = Zelf.Binary.serialize orig }

let rewrite it = Zipr.Pipeline.rewrite_bytes ~transforms it.raw

(* The corpus's first [count] members in the seed's order. *)
let batches ~seed ~count f =
  let order = Array.init count Fun.id in
  Zipr_util.Rng.shuffle (Zipr_util.Rng.create seed) order;
  let rec go lo =
    if lo < count then begin
      f (List.init (min batch (count - lo)) (fun k -> item ~seed:corpus_seed order.(lo + k)));
      go (lo + batch)
    end
  in
  go 0

let timed ~seed ~seconds =
  let count = count ~seconds in
  let warm = List.init warmup (item ~seed:warmup_seed) in
  let setups =
    List.init setups (fun _ ->
        let t0 = Harness.now () in
        List.iter (fun it -> ignore (rewrite it)) warm;
        Harness.now () -. t0)
  in
  let wall = ref 0.0 and latencies = ref [] and failures = ref [] in
  let sizes = ref [] and ovs = ref [] in
  batches ~seed ~count (fun items ->
      let t0 = Harness.now () in
      let results =
        List.map
          (fun it ->
            let r0 = Harness.now () in
            let r = rewrite it in
            latencies := (1e3 *. (Harness.now () -. r0)) :: !latencies;
            (it, r))
          items
      in
      wall := !wall +. (Harness.now () -. t0);
      List.iter
        (fun (it, r) ->
          let orig_bytes = Bytes.length it.raw in
          match
            Result.bind r (fun out ->
                sizes :=
                  (it.index, Harness.overhead_pct ~base:orig_bytes ~measured:(Bytes.length out))
                  :: !sizes;
                Checks.fixed_input_check
                  ~sweep:(it.index mod Checks.sweep_every = 0)
                  ~orig:it.orig ~orig_bytes (Bytes.unsafe_to_string out))
          with
          | Ok ov -> ovs := (it.index, ov) :: !ovs
          | Error why -> failures := (it.name, why) :: !failures)
        results);
  (* Summed in corpus order, so the means read the same to the last
     digit whatever the seed's order. *)
  let by_index l = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) l) in
  let phase =
    {
      Harness.passed = List.length !ovs;
      wall = !wall;
      latencies = !latencies;
      peak_kb = Harness.vm_hwm_kb "self";
    }
  in
  {
    Harness.attempted = count;
    failures = List.rev !failures;
    metrics =
      Harness.end_to_end ~setups ~attempted:count ~phases:[ phase ]
        ~overheads:(Checks.mean_overheads ~sizes:(by_index !sizes) (by_index !ovs));
  }

(* Each member untraced, then decomposed under spans; the two must
   agree byte for byte (or both refuse). *)
let traced ~seed ~seconds ~spans_file =
  let count = count ~seconds in
  let layers = Layers.create () in
  let untraced = ref 0.0 and failures = ref [] in
  batches ~seed ~count (fun items ->
      List.iter
        (fun it ->
          let t0 = Harness.now () in
          let expected = rewrite it in
          untraced := !untraced +. (Harness.now () -. t0);
          let req = layers.Layers.c.Layers.requests in
          match (expected, Layers.rewrite layers ~req Layers.no_caches ~transforms it.raw) with
          | Ok a, Ok b when Bytes.equal a b -> ()
          | Error why, Error _ -> failures := (it.name, why) :: !failures
          | _ -> Harness.broken "decomposed rewrite of %s differs from rewrite_bytes" it.name)
        items);
  Spans.write layers.Layers.spans spans_file;
  {
    Harness.attempted = count;
    failures = List.rev !failures;
    metrics =
      Layers.metrics layers
        ~untraced_ms:(1e3 *. !untraced /. float_of_int count)
        ~routine_cache:None
      @ Daemon.serve_metrics [];
  }
