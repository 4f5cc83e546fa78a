(* Observability: phase spans and atomic counters.

   One process-global sink, installed explicitly by an entry point
   (ziprtool --trace, a test) and shared by every domain.
   With no sink installed, every entry point is a single atomic load and
   a branch — no allocation, no clock read, no lock — so instrumented
   code pays nothing in the default configuration.  Instrumentation only
   ever reads clocks and bumps counters: it cannot influence placement,
   RNG streams or emitted bytes, which is what keeps rewritten outputs
   byte-identical with tracing on or off.

   Span nesting is tracked per domain through a DLS stack of names; a
   span's [path] is the slash-joined chain ("rewrite/reassemble/drain").
   [~root:true] detaches a span from whatever is open on the current
   domain — used for pool tasks, so a task traces identically whether it
   ran inline (jobs=1, inside the caller's spans) or on a worker domain
   (empty stack), keeping aggregated corpus reports jobs-independent. *)

module Counters = Counters
module Tracer = Tracer

let current : Tracer.t option Atomic.t = Atomic.make None

let install sink = Atomic.set current (Some sink)
let disable () = Atomic.set current None
let active () = Atomic.get current
let enabled () = Atomic.get current <> None

let stack : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let span ?(root = false) ?(args = []) name f =
  match Atomic.get current with
  | None -> f ()
  | Some sink ->
      let st = Domain.DLS.get stack in
      let saved = !st in
      let frames = name :: (if root then [] else saved) in
      st := frames;
      let path = String.concat "/" (List.rev frames) in
      let t0 = Tracer.now sink in
      Fun.protect
        ~finally:(fun () ->
          let t1 = Tracer.now sink in
          st := saved;
          Tracer.record sink
            {
              Tracer.path;
              name;
              tid = (Domain.self () :> int);
              ts_us = t0;
              dur_us = t1 - t0;
              args;
            })
        f

(* Global counter bumps.  [name] should be a literal (or otherwise
   precomputed) so the disabled path stays allocation-free. *)
let count name n =
  match Atomic.get current with
  | None -> ()
  | Some sink -> Counters.bump (Counters.counter (Tracer.counters sink) name) n

let gauge_max name v =
  match Atomic.get current with
  | None -> ()
  | Some sink -> Counters.bump (Counters.gauge (Tracer.counters sink) name) v

(* Fold a per-run registry (a Reassemble state's, a Memspace's) into the
   sink's aggregate.  Sum cells add and Max cells max, so the merged
   totals are independent of which domain merged first. *)
let merge_counters c =
  match Atomic.get current with
  | None -> ()
  | Some sink -> Counters.merge ~into:(Tracer.counters sink) c
