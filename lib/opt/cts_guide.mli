(** Clock-tree-synthesis guidance — the paper's "apply our algorithm to
    open-source flows to guide clock tree synthesis" extension
    (Section VI).

    Reconnection can only choose among *existing* LCBs, so large or
    unusual latency targets are realized with error. This module goes one
    step further: it clusters the flip-flops that carry CSS latency
    targets (k-means over position and target) and proposes *new* LCB
    sites whose branch Elmore delays meet the targets, then inserts those
    LCBs into the design and re-homes the member flip-flops.

    The plan/apply split lets a flow inspect or veto the proposal — the
    plan is pure; only {!apply} mutates the design. *)

type cluster = {
  members : (Css_netlist.Design.cell_id * float) list;
      (** flip-flop and its desired *additional* latency *)
  lcb_pos : Css_geometry.Point.t;  (** proposed LCB site *)
  expected_error : float;  (** mean |achieved - desired| over members, ps *)
}

type plan = { clusters : cluster list }

(** [plan timer ~targets] clusters the flip-flops whose target exceeds
    {!Css_netlist.Design.min_realized_target} and sites one LCB per
    cluster: at most 16 clusters, each of at most
    {!Css_netlist.Design.lcb_fanout_limit} members. A member whose
    achieved latency at the site would miss its desired value by more
    than 12 ps is left out (reconnection handles it). Pure: the design
    is not modified. *)
val plan : Css_sta.Timer.t -> targets:(Css_netlist.Design.cell_id * float) list -> plan

type applied = {
  new_lcbs : Css_netlist.Design.cell_id list;
  hosted : Css_netlist.Design.cell_id list;
      (** the flip-flops actually re-homed (members whose Eq. (5) window
          the chosen site would violate are left on their old LCB and
          must be realized by other means) *)
}

(** [apply timer plan] inserts the planned LCBs (named [cts_lcb<N>]
    with output net [cts_ck<N>], N the smallest suffix free in the
    design, so identical designs get identical names; hooked onto the
    clock-root net), re-homes the admissible member
    flip-flops, clears their scheduled latencies and incrementally
    re-propagates. *)
val apply : Css_sta.Timer.t -> plan -> applied
