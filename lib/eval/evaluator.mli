(** The independent design evaluator — the stand-in for the official
    ICCAD-2015 contest evaluator the paper scores against.

    {!evaluate} builds a fresh timer (never trusting any incremental
    state the optimizer maintained); a {!scorer} keeps its own timer up
    to date across calls with the same result. Both measure early/late
    WNS and TNS over all endpoints, total HPWL, and check the contest
    constraints: {!Css_netlist.Design.lcb_fanout_limit},
    {!Css_netlist.Design.max_displacement} and the Eq. (5) latency
    windows. Scheduled (virtual) latencies are ignored — only the
    physically realized clock network counts, exactly like the contest
    evaluator. *)

type report = {
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  num_early_violations : int;
  num_late_violations : int;
  hpwl : float;
  constraint_errors : string list;  (** empty when all constraints hold *)
}

(** [evaluate ?timer design] scores the design with a freshly built
    timer of analysis setup [timer] (derates, uncertainties; default
    {!Css_sta.Timer.default_config}), discarded afterwards. Scheduled
    latencies are restored even when scoring raises (e.g. on a
    combinational cycle). *)
val evaluate : ?timer:Css_sta.Timer.config -> Css_netlist.Design.t -> report

(** {1 Incremental scoring}

    A [scorer] keeps one scoring timer alive across calls, the paper's
    "Update" step applied to evaluation: a flow that scores its design
    after every phase pays for a full build once and afterwards only for
    the cones its edits touched.

    Contract: [score s] is bitwise equal, field by field, to
    [evaluate ~timer d] on the scorer's design [d] in its current state.
    [Css_oracle.Oracles.check_scorer_identity] proves it over whole
    flows. The scorer handles any mix of cell moves, master swaps, LCB
    reconnections and latency edits between calls, and rebuilds from
    scratch when the netlist grew (cell, net or pin count changed, as
    when CTS inserts LCBs). It does not see rewiring that keeps every
    count, and it is bound to one design and one [timer] setup: after a
    design replacement or a timer-config change, make a new scorer. *)

type scorer

(** [scorer ?timer ?obs ?graph design] is a scorer over [design].
    Nothing is built until the first {!score}. [obs] (default
    {!Css_util.Obs.null}) receives the scoring timer's [timer.*]
    counters plus [eval.scores], [eval.rebuilds] and the histogram
    [eval.dirty_cells] (cells plus flip-flops re-seeded per incremental
    score). [graph], a live timer's data graph of [design] (see
    {!Css_sta.Timer.build}), is shared by the first build instead of
    copied; a rebuild after the netlist grew builds its own. *)
val scorer :
  ?timer:Css_sta.Timer.config ->
  ?obs:Css_util.Obs.t ->
  ?graph:Css_sta.Graph.t ->
  Css_netlist.Design.t ->
  scorer

(** [score s] brings the scoring timer up to date with the design and
    reads the report; see the contract above. *)
val score : scorer -> report

(** [summary r] is a one-line human-readable rendering. *)
val summary : report -> string
