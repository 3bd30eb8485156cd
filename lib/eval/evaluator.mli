(** The independent design evaluator — the stand-in for the official
    ICCAD-2015 contest evaluator the paper scores against.

    {!evaluate} builds a fresh timer (never trusting any incremental
    state the optimizer maintained); {!score} reads a live timer with the
    same result. Both measure early/late WNS and TNS over all endpoints,
    total HPWL, and check the contest constraints:
    {!Css_netlist.Design.lcb_fanout_limit},
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

(** [score timer] is the same report read off [timer], a live timer
    kept current with its design through its own update paths (the
    paper's "Update" step): a session scores its checkpoints and signs
    off on the one timer it schedules with. Flip-flops that hold a
    scheduled latency are masked to 0 and pushed through
    {!Css_sta.Timer.update_latencies} while the report is read, then put
    back the same way, also when scoring raises; with none held, scoring
    does no timer work. Every node's arrival, required time and slew
    comes back bitwise.

    Contract: [score timer] is bitwise equal, field by field, to
    [evaluate ~timer:(Timer.config timer) d] on the timer's design [d]
    in its current state, provided the timer is current with [d].
    [Css_oracle.Oracles.check_scorer_identity] proves it after every
    phase of whole flows. *)
val score : Css_sta.Timer.t -> report

(** [live timer] is [timer]'s view as it stands, scheduled latencies
    included and no constraint audit: a cheap report for a service
    answering delta requests, never for contest scoring. *)
val live : Css_sta.Timer.t -> report

(** [summary r] is a one-line human-readable rendering. *)
val summary : report -> string
