(** The per-rewrite knobs, declared once.

    One record carries every choice a user makes about a single rewrite
    — which transforms run, how dollops are placed, the layout seed and
    the inference switch — exactly as the user gave them: optional
    knobs stay [None] (or [""]) until set.  Every front end
    uses it: the CLI builds one from its flags, the wire protocol
    encodes it with {!to_pairs}/{!of_pairs}, the daemon {!merge}s a
    request over its own defaults, and each path ends in {!resolve}. *)

type t = {
  transforms : string list;  (** transform names, applied in order *)
  placement : string;  (** strategy name, one of {!Placement.names} *)
  seed : int;  (** layout seed (random placement) *)
  placement_budget : int option;  (** search-strategy candidate budget *)
  placement_epsilon : float option;  (** search-strategy diversity dial in [0,1] *)
  placement_weights : string;
      (** cost-model weight spec ({!Cost.weights_of_spec} syntax); [""]
          is unset.  May contain [','] and ['='] but never [';']. *)
  infer : bool option;  (** the inference refiner ({!Disasm.Infer}); unset means off *)
}

val default : t
(** [null] transform, optimized placement, seed 1, every optional knob
    unset. *)

val merge : defaults:t -> t -> t
(** A request over the daemon's defaults: the request's set knobs win,
    and its transforms, placement and seed (always set) are kept. *)

val to_pairs : t -> (string * string) list
(** The v1 wire keys, in wire order: [transforms] (comma-joined),
    [placement] and [seed] always, then [placement_budget],
    [placement_epsilon] ([%.17g]), [placement_weights] and [infer]
    ([0|1]) only when set, so a record that never mentions a
    knob encodes byte-identically to frames older than the knob. *)

val of_pairs : (string * string) list -> (t, string) result
(** Inverse of {!to_pairs}, starting from {!default}: the last
    occurrence of a key wins, unknown keys are ignored (forward
    compatibility, and a retired key from an older client decodes as if
    it were absent), and a known key whose value does not parse is an
    [Error] naming it. *)

val resolve :
  resolve_transform:(string -> Transform.t option) ->
  t ->
  (Pipeline.config * Transform.t list, string) result
(** The pipeline configuration and transforms these knobs ask for:
    unset knobs take their defaults.  [Error] carries a printable
    message: the placement's ({!Placement.resolve}), else ["unknown
    transforms: ..."]. *)
