(** Pollers: deterministic functionality and performance probes.

    In the CGC, DARPA required challenge-binary authors to supply pollers
    exercising all of a CB's functionality; replacement binaries were
    scored on poller behaviour (functionality) and poller resource usage
    (execution time, memory) relative to the original.  Here a poller is a
    generated input script; its expected behaviour is whatever the
    {e original} binary does with it, so a rewritten binary passes when
    the differential rule ({!Zipr.Verify.compare_runs}: output bytes,
    exit status, fault kind and system-call trace) finds no divergence. *)

type script = { input : string }

val generate : Cb_gen.meta -> seed:int -> count:int -> script list
(** Random command scripts covering every dispatchable command, indirect
    calls, hidden code, benign (in-bounds) uses of the vulnerable
    handler, unknown-command paths, and quit/EOF endings. *)

val run : ?fuel:int -> Zelf.Binary.t -> script -> Zvm.Vm.result
(** One run of the script with [fuel] instructions (default 5 million):
    an original's budget.  An original's runs never change, so a caller
    that checks several rewrites of one original runs them once and
    hands them to {!replay}. *)

type check = {
  total : int;
  passed : int;
  failures : (script * string) list;  (** script and a short reason *)
}

val replay :
  ?fuel:int ->
  orig:Zvm.Vm.result list ->
  rewritten:Zelf.Binary.t ->
  script list ->
  check * Zvm.Vm.result list
(** [replay ~orig ~rewritten scripts] runs the rewrite once per script,
    with {!Zipr.Verify.rewrite_fuel} of [fuel], and judges each run
    against the original's (the list [orig], one run per script, made by
    {!run} with the same [fuel]) by {!Zipr.Verify.compare_runs}.  A
    script on which the original exhausts its budget has nothing to
    compare and counts as passed.  Returns the check and the rewrite's
    runs, which also give its {!usage}. *)

val functional_check :
  ?fuel:int -> orig:Zelf.Binary.t -> rewritten:Zelf.Binary.t -> script list -> check
(** {!replay} against fresh runs of [orig]. *)

type usage = {
  cycles : int;  (** summed over scripts *)
  insns : int;
  rss_pages : int;  (** maximum over scripts *)
}

val usage : Zvm.Vm.result list -> usage
