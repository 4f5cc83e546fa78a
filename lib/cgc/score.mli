(** CFE-style scoring of a replacement challenge binary.

    The CGC final event scored each replacement binary on availability
    (functionality preserved, performance within 5% CPU / 5% memory /
    20% file-size envelopes) and security (proofs of vulnerability
    stopped).  The exact CFE formula had competition-specific constants;
    this module implements a documented simplification that preserves its
    structure: overhead beyond a threshold divides availability, and
    stopping the PoV doubles the score.

    - [availability = functionality / (1 + excess)] where [excess] sums
      [max 0 (exec% - 5)], [max 0 (mem% - 5)] and [max 0 (size% - 20)]
      (as fractions);
    - [security] is 2 when every PoV is blocked, else 1;
    - [total = availability * security]. *)

type overheads = { size_pct : float; exec_pct : float; mem_pct : float }

val overheads :
  orig:Zelf.Binary.t ->
  rewritten:Zelf.Binary.t ->
  orig_runs:Zvm.Vm.result list ->
  rewritten_runs:Zvm.Vm.result list ->
  overheads
(** File-size from serialization, execution from summed poller cycles,
    memory from peak poller RSS pages, over one run of each side per
    poller (see {!Poller.replay}). *)

type eval = {
  name : string;
  ov : overheads;
  functionality : float;  (** fraction of pollers the rewrite passes *)
  pov_blocked : bool option;  (** [None] when the CB has no PoV *)
}

val evaluate :
  name:string ->
  orig:Zelf.Binary.t ->
  orig_runs:Zvm.Vm.result list ->
  rewritten:Zelf.Binary.t ->
  meta:Cb_gen.meta ->
  pollers:Poller.script list ->
  eval
(** Run the rewrite once per poller for both its transcript check and
    its overheads, then every PoV against it.  [orig_runs] are the
    original's runs, one per poller ({!Poller.run}), so a caller that
    scores several rewrites of one original runs it once. *)

val availability : eval -> float
val security : eval -> float
val total : eval -> float

val pp_eval : Format.formatter -> eval -> unit
