(** End-to-end slack optimization flows — the rows of Table I.

    Each flow interleaves clock skew scheduling (CSS) with physical slack
    optimization (OPT: LCB-FF reconnection + cell movement), in the
    paper's staging: early slack optimization under late constraints,
    then late optimization under early constraints, for a configurable
    number of rounds (Fig. 8 shows this interleaving on superblue18).

    Metrics follow Table I's columns: final early/late WNS/TNS as scored
    by the independent evaluator, CSS and OPT wall-clock seconds, the
    number of extracted sequential edges, and the HPWL increase.

    [Flow] is {!Session} plus the one-shot entry points {!run} and {!resume}:
    each opens a session, drains it and closes it. Every type, field and
    hardening guarantee (validation, watchdogs, checkpoint/rollback,
    budgets, crash-safe persistence) is documented once, in {!Session}.
    Long-running embedders (the [css_serve] daemon) keep a session open
    instead, to hold the design, timer and extraction state warm between
    requests and answer deltas incrementally ({!Session.apply_delta}). *)

include module type of struct
  include Session
end

(** [run ?config ~algo design] executes the flow, mutating [design], and
    scores the final state with the evaluator.
    @raise Css_netlist.Validate.Invalid if [config.validate] and the
    design is fatally degenerate (after repair, when enabled). *)
val run : ?config:config -> algo:algo -> Css_netlist.Design.t -> result

(** [resume ?config ~library ~dir ()] loads the durable checkpoint under
    [dir] and continues the interrupted run to completion, returning the
    result (with [resumed = true]) and the continued design. Because
    checkpoints are written only at completed-phase boundaries and every
    phase is deterministic, the final scheduled latencies are bitwise
    those of the same run uninterrupted.

    The checkpoint's settings ({!Persist.settings}) replace [config]'s,
    so [config] supplies only process-local fields ({!Session.reopen}):
    [{ default_config with checkpoint_dir = Some dir }] resumes any run. On
    [Error], the diagnostics carry the [CKPT-*] codes of {!Persist}
    ([CKPT-006] when the checkpoint names an unknown algorithm or engine
    slot, its design does not parse against [library], or its arrays do
    not fit that design). *)
val resume :
  ?config:config ->
  library:Css_liberty.Library.t ->
  dir:string ->
  unit ->
  (result * Css_netlist.Design.t, Css_util.Diag.t list) Stdlib.result
