(** The differential-fuzzing driver.

    Each case: draw a random program spec ({!Gen}), draw a random rewrite
    configuration (transform stack, any of {!Zipr.Placement.names},
    layout-diversity seed), rewrite, and execute original vs. rewritten
    on the spec's inputs, judged by {!Zipr.Verify.compare_on}.
    Reassembly failures, structural-verifier issues (when enabled) and
    behavioural divergences are all findings; every
    finding is greedily minimized ({!Shrink}) over the spec, the
    transform stack and the distinguishing input, and dumped as a
    reparseable zasm reproducer.

    Determinism contract: {!run} is a pure function of {!options} — the
    same seed yields the same cases, the same configurations, the same
    verdicts and the same minimized reproducers, so a reported failure is
    always replayable.  A fault can be injected to validate the harness
    end-to-end (it must catch a deliberately broken rewrite). *)

type fault =
  | Skip_pin
      (** after rewriting, overwrite one pinned address's reference jump
          with no-ops — simulating a rewriter that dropped a pin *)

type xf =
  | Null
  | Cfi
  | Shadow_stack
  | Jumptable_rewrite
  | Stack_pad of int
  | Canary of int
  | Stirring of int
  | Nop_pad of int  (** seeds are part of the configuration *)

type cfg = { transforms : xf list; placement : string; layout_seed : int }

type options = {
  cases : int;
  seed : int;
  max_steps : int;  (** the original's per-execution instruction budget *)
  fault : fault option;
  structural : bool;  (** also run {!Zipr.Verify.structural} per case *)
  shrink_budget : int;  (** max re-tests spent minimizing one failure *)
  jobs : int;
      (** worker domains for case execution.  Every case's RNG stream is
          split off the master serially before any fan-out, each case
          (including its minimization) runs against only its own stream,
          and verdicts reassemble in case order — so the summary,
          including reproducers and failure ordering, is identical for
          every [jobs] value. *)
  infer : bool;
      (** rewrite every case with the {!Disasm.Infer} refiner on — the
          differential soundness gate for inference-based refinement:
          any divergence it surfaces is a refinement bug. *)
}

val default_options : options
(** 100 cases, seed 1, 2M steps, no fault, no structural, budget 120,
    1 job, no inference refiner. *)

type failure = {
  case : int;
  spec : Gen.spec;
  cfg : cfg;
  input : string;
  reason : string;
  min_spec : Gen.spec;
  min_cfg : cfg;
  min_input : string;
  min_reason : string;
  shrink_tests : int;
  repro_zasm : string;  (** reparseable listing of the minimized program *)
}

type summary = {
  cases_run : int;
  rewrites : int;
  inputs_compared : int;
  failures : failure list;
}

val cfg_to_string : cfg -> string

val run : ?log:(string -> unit) -> options -> summary
(** [log] receives progress lines (side channel; not part of the
    deterministic output). *)

val render_summary : summary -> string
(** Deterministic multi-line report (reproducer listings excluded). *)
