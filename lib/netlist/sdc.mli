(** SDC-lite timing constraints.

    A small subset of the Synopsys Design Constraints vocabulary, enough
    to configure an analysis and scheduling run from a side file instead
    of code:

    {v
    # comments and blank lines are ignored
    create_clock -period 600
    set_clock_uncertainty -setup 25
    set_clock_uncertainty -hold 10
    set_timing_derate -early 0.9
    set_latency_bounds ff12 0 150        # Eq. (5) window, ps
    set_max_displacement 400             # placement ECO budget, DBU
    set_lcb_fanout_limit 50              # accepted, ignored (SDC-006 warning)
    v}

    [create_clock] cannot change a built design's period (the period is
    a construction parameter); it is instead validated against it, so a
    stale constraint file fails loudly. Consumers fold the analysis knobs
    ([setup_uncertainty], [hold_uncertainty], [early_derate]) into their
    timer configuration and the physical knobs into the evaluator's. *)

type t = {
  period : float option;  (** validated against the design *)
  setup_uncertainty : float;
  hold_uncertainty : float;
  early_derate : float option;
  latency_bounds : (string * float * float) list;  (** cell name, lo, hi *)
  max_displacement : float option;
}

(** [empty] constrains nothing. *)
val empty : t

(** Recover-or-abort policy, as in {!Io.policy}: [Abort] returns
    [Error] on the first bad line / unknown flip-flop, [Recover] skips
    it, collects the diagnostic and keeps going. *)
type policy =
  | Abort
  | Recover

(** [parse ?source ?policy s] reads the constraint text, collecting
    {!Css_util.Diag.t} diagnostics (codes [SDC-000..SDC-006]) instead of
    raising. Unknown commands carry a nearest-command hint.
    [set_lcb_fanout_limit] is accepted but not applied: it yields an
    [SDC-006] warning. *)
val parse :
  ?source:string ->
  ?policy:policy ->
  string ->
  (t * Css_util.Diag.t list, Css_util.Diag.t list) result

(** [load ?policy path] reads and parses a file; unreadable files become
    an [SDC-000] diagnostic. *)
val load :
  ?policy:policy -> string -> (t * Css_util.Diag.t list, Css_util.Diag.t list) result

(** [parse_exn s] reads the constraint text.
    @raise Failure with a rendered diagnostic on unknown or malformed
    commands. *)
val parse_exn : string -> t

(** [load_exn path] reads and parses a file.
    @raise Failure as {!parse_exn}. *)
val load_exn : string -> t

(** [apply ?policy t design] installs the per-flip-flop latency windows
    on the design and validates the clock period. An unknown flip-flop
    name produces an [SDC-003] diagnostic with a nearest-name
    (edit-distance) suggestion as its hint. Valid windows are installed
    even when others fail; under [Recover] the failures are returned as
    [Ok] diagnostics. *)
val apply :
  ?policy:policy ->
  t ->
  Design.t ->
  (Css_util.Diag.t list, Css_util.Diag.t list) result

(** [apply_exn t design] is {!apply} re-raising the first error as
    [Failure] (message includes the suggestion hint, when any). *)
val apply_exn : t -> Design.t -> unit
