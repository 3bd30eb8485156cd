(** The independent design evaluator — the stand-in for the official
    ICCAD-2015 contest evaluator the paper scores against.

    {!evaluate} builds a fresh timer (never trusting any incremental
    state the optimizer maintained); a {!scorer} keeps its own timer up
    to date across calls with the same result. Both measure early/late
    WNS and TNS over all endpoints, total HPWL, and check the contest
    constraints: LCB fanout limit and per-cell displacement budget.
    Scheduled (virtual) latencies are ignored by default — only the
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

type config = {
  lcb_fanout_limit : int;  (** contest: 50 *)
  max_displacement : float;  (** per-cell displacement budget, DBU *)
  include_scheduled : bool;
      (** count virtual latencies as real — useful for inspecting a CSS
          result before realization, never for final scoring *)
  timer : Css_sta.Timer.config;
      (** analysis setup (derates, uncertainties) the scoring timer uses *)
}

val default_config : config

(** [evaluate ?config design] scores the design with a freshly built
    timer, discarded afterwards. Scheduled latencies are restored even
    when scoring raises (e.g. on a combinational cycle). *)
val evaluate : ?config:config -> Css_netlist.Design.t -> report

(** {1 Incremental scoring}

    A [scorer] keeps one scoring timer alive across calls, the paper's
    "Update" step applied to evaluation: a flow that scores its design
    after every phase pays for a full build once and afterwards only for
    the cones its edits touched.

    Contract: [score s] is bitwise equal, field by field, to
    [evaluate ~config d] on the scorer's design [d] in its current state.
    [Css_oracle.Oracles.check_scorer_identity] proves it over whole
    flows. The scorer handles any mix of cell moves, master swaps, LCB
    reconnections and latency edits between calls, and rebuilds from
    scratch when the netlist grew (cell, net or pin count changed, as
    when CTS inserts LCBs). It does not see rewiring that keeps every
    count, and it is bound to one design and one [config]: after a
    design replacement or a timer-config change, make a new scorer. *)

type scorer

(** [scorer ?config ?obs ?graph design] is a scorer over [design].
    Nothing is built until the first {!score}. [obs] (default
    {!Css_util.Obs.null}) receives the scoring timer's [timer.*]
    counters plus [eval.scores], [eval.rebuilds] and the histogram
    [eval.dirty_cells] (cells plus flip-flops re-seeded per incremental
    score). [graph], a live timer's data graph of [design] (see
    {!Css_sta.Timer.build}), is shared by the first build instead of
    copied; a rebuild after the netlist grew builds its own. *)
val scorer :
  ?config:config ->
  ?obs:Css_util.Obs.t ->
  ?graph:Css_sta.Graph.t ->
  Css_netlist.Design.t ->
  scorer

(** [score s] brings the scoring timer up to date with the design and
    reads the report; see the contract above. *)
val score : scorer -> report

(** [summary r] is a one-line human-readable rendering. *)
val summary : report -> string
