(** Differential and invariant oracles over the scheduling engines.

    Every check in this module is shared between the test suite
    ([test/test_differential.ml], [test/test_faults.ml]) and the fuzzing
    CLI ([bin/fuzz.ml]), so a property disproved by either is stated in
    exactly one place. Checks return a list of human-readable failure
    messages — empty means the property held — rather than raising, so
    callers can aggregate across a sweep and the fuzzer can attach the
    messages to a shrunk reproducer.

    Three oracle families:

    - {b differential}: the paper's iterative engine
      ([Extract.Essential]), the exhaustive reference ([Extract.Full])
      and the IC-CSS+ baseline ([Extract.Iccss]), each run through
      {!Css_core.Engine.run}, must agree on the achieved WNS/TNS within
      tolerance ({!check_parity});
    - {b feasibility}: a produced schedule must respect the latency
      windows, be numerically sane, and never beat the theoretical
      minimum-cycle-mean bound ({!check_feasible});
    - {b graceful degradation}: a corrupted input pushed through the
      whole pipeline (library validation, parsing, SDC, flow) must end
      in a typed rejection or a never-worse-than-input result
      ({!pipeline}). *)

(** One engine run's observable outcome: post-schedule timing at both
    corners, the scheduler's trajectory summary, and the per-flip-flop
    scheduled latencies (name-sorted) for bitwise comparison. *)
type run = {
  engine : Css_seqgraph.Extract.engine;
  corner : Css_sta.Timer.corner;  (** the corner the scheduler optimized *)
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  iterations : int;
  stop_reason : string;
  edges_extracted : int;
  latencies : (string * float) list;  (** per-FF scheduled latency, sorted by name *)
  scheduled : Css_netlist.Design.t;
      (** the scheduled clone the run mutated — feed to {!check_feasible} *)
}

(** [schedule ?config engine design ~corner] clones
    [design], runs [engine]'s scheduler at [corner] on the clone and
    reports the outcome; the caller's design is never mutated. *)
val schedule :
  ?config:Css_core.Scheduler.config ->
  Css_seqgraph.Extract.engine ->
  Css_netlist.Design.t ->
  corner:Css_sta.Timer.corner ->
  run

(** [report_diffs ~label a b] lists, each prefixed by [label], the
    fields where evaluator report [b] differs from [a]: floats by
    [Int64.bits_of_float], counts and [constraint_errors] by equality.
    Empty means bitwise equal. *)
val report_diffs :
  label:string -> Css_eval.Evaluator.report -> Css_eval.Evaluator.report -> string list

(** [check_parity ?wns_tol ?tns_rel_tol ?tns_abs_tol ~reference
    candidate] compares two runs at their {e scheduled} corner. Only
    that corner's WNS is theoretically pinned — every engine must reach
    the minimum-cycle-mean optimum — so WNS parity is tight ([wns_tol]
    ps, default 0.5). TNS is a property of {e which} WNS-optimal
    schedule was reached, so it gets only a loose regression tripwire:
    within [tns_rel_tol] of the reference magnitude (default 0.5) or
    [tns_abs_tol] ps (default 10), whichever is looser. Off-corner
    metrics are unconstrained and not compared. *)
val check_parity :
  ?wns_tol:float ->
  ?tns_rel_tol:float ->
  ?tns_abs_tol:float ->
  reference:run ->
  run ->
  string list

(** [check_feasible ?slack_tol design ~corner] audits a design {e after}
    scheduling: every flip-flop's scheduled latency is finite and inside
    its [Design.latency_bounds] window (within 1e-6), the structural
    invariants of [Design.check] still hold, and the achieved WNS at
    [corner] does not {e beat} the minimum-cycle-mean upper bound of
    {!Css_core.Optimum.gap} by more than [slack_tol] ps (default 0.5) —
    a schedule better than the theoretical optimum means the timer or
    the bound is lying. *)
val check_feasible :
  ?slack_tol:float -> Css_netlist.Design.t -> corner:Css_sta.Timer.corner -> string list

(** [check_resume_identity ?config ?kill_after_phase
    ?kill_after_iteration design ~algo ~dir] proves continuation is
    invisible: it runs the flow uninterrupted on one clone, runs it
    again with a deterministic debug interrupt injected after
    [kill_after_phase] completed phases and/or [kill_after_iteration]
    scheduler polls (persisting checkpoints under [dir]), resumes from
    disk with {!Css_flow.Flow.resume} under no config of its own, and
    requires the resumed run's final per-flip-flop latencies, evaluator
    report, stop reason and design text to be {e bit-identical} to the
    uninterrupted run's. A kill point past
    the end of the run degrades to resume-of-a-complete-run, which must
    also be an identity. [config] must leave persistence and the debug
    knobs unset (the check owns them). *)
val check_resume_identity :
  ?config:Css_flow.Flow.config ->
  ?kill_after_phase:int ->
  ?kill_after_iteration:int ->
  Css_netlist.Design.t ->
  algo:Css_flow.Flow.algo ->
  dir:string ->
  string list

(** [random_deltas rng design ~n] draws [n] session deltas exercising
    every request kind {!Css_flow.Session.apply_delta} resolves —
    placement nudges, latency overrides, window tightenings, bounds-only
    SDC text, and the occasional no-op netlist replacement (still forces
    the from-scratch fallback) — deterministic in [rng]. *)
val random_deltas :
  Random.State.t -> Css_netlist.Design.t -> n:int -> Css_flow.Session.delta list

(** [check_eco_identity ?config ~deltas design ~algo] proves a
    warm session is an optimization, not an approximation: it opens a
    session on one clone of [design] and runs it, replays the same
    history cold on another clone ([Flow.run], then per delta batch
    {!Css_flow.Session.stage} + a from-scratch [Flow.run] on the
    post-delta design), and requires {e bit-identical} per-flip-flop
    latencies and byte-identical design text ({!Css_netlist.Io.to_string},
    which also holds what OPT changed: placement, reconnections and the
    realized latencies it zeroes) after the initial run and after every
    batch.
    [config]'s rollback/persistence/debug knobs
    are overridden (identity needs both sides on the live-timer path
    and free of budget degradation). *)
val check_eco_identity :
  ?config:Css_flow.Flow.config ->
  deltas:Css_flow.Session.delta list list ->
  Css_netlist.Design.t ->
  algo:Css_flow.Flow.algo ->
  string list

(** [check_scorer_identity ?config design ~algo] proves scoring on the
    live timer exact: it opens a session on a clone of [design], drives
    it with {!Css_flow.Session.step} and compares
    {!Css_flow.Session.score} field by field ({!report_diffs}) against
    [Evaluator.evaluate] of an independent copy (text round trip plus
    movement anchors) at open and after every phase, and does the same
    for {!Css_flow.Session.finish}'s report (past any rollback).
    [config]'s persistence and debug knobs are overridden; its
    [on_phase_end] hook, if any, runs as in a flow. *)
val check_scorer_identity :
  ?config:Css_flow.Flow.config -> Css_netlist.Design.t -> algo:Css_flow.Flow.algo -> string list

(** How a corrupted input was absorbed by the pipeline. *)
type verdict =
  | Rejected of string
      (** a stage refused the input with well-formed, coded diagnostics;
          the string names the stage *)
  | Survived of Css_eval.Evaluator.report
      (** the full flow ran and ended no worse than its (repaired)
          input; the report is the final evaluation *)

(** [pipeline ?rounds corpus] pushes a (possibly corrupted)
    {!Css_benchgen.Fault_seq.corpus} through the production pipeline:
    library validation, netlist parse ([Recover] policy), SDC parse +
    apply, then a rollback-guarded flow run (its late phases sabotaged
    by {!Css_benchgen.Fault_seq.push_ffs_off_die} when the corpus says
    so, which forces a rollback), scoring the result against the
    input. [Ok verdict] means every stage behaved gracefully;
    [Error msg] is an oracle violation — an unhandled exception, a
    rejection without error-severity coded diagnostics, a NaN score, a
    flow result worse than its input, or a returned report (final or
    rolled back) not bitwise equal to [Evaluator.evaluate] of the
    returned design. [rounds] (default 1) bounds the flow. *)
val pipeline :
  ?rounds:int ->
  Css_benchgen.Fault_seq.corpus ->
  (verdict, string) result
