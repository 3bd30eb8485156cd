(** The static timing analyser.

    Maintains min/max arrival times, slews, and early/late required times
    over a {!Graph.t}; answers the queries the clock-skew scheduler needs:

    - endpoint and per-pin slacks (Eq. (1)(2) of the paper);
    - the launch-pin late slack, which is the sequential-graph vertex
      weight [w^out] of Eq. (6), with no extraction;
    - the capture-pin early slack, which is the latency bound [s^E_v] of
      Eq. (11), again with no extraction;
    - fan-in / fan-out cone delay enumeration, the primitive underlying
      all three sequential-graph extraction engines;
    - incremental re-propagation after clock-latency changes or cell
      moves, the paper's "Update" step.

    Hold analysis uses the standard industrial form
    [slack^E = (l_u + c2q_u^early + d^min) - (l_v + hold_v)]; the paper's
    Eq. (1) subtracts the capture c2q as well, which does not affect any
    slack *increment* (Eq. (3)) and hence none of the algorithms. *)

type corner =
  | Early  (** hold / min-delay analysis *)
  | Late  (** setup / max-delay analysis *)

(** The analysis setup an SDC file or the command line may change.
    Launch-pin slew (10 ps), input-port drive resistance (1) and
    output-port pin cap (2 fF) are fixed. *)
type config = {
  early_derate : float;  (** min-corner delay = derate * max-corner *)
  setup_uncertainty : float;  (** clock uncertainty margin on setup checks, ps *)
  hold_uncertainty : float;  (** clock uncertainty margin on hold checks, ps *)
}

(** Derate 0.88, no uncertainty. *)
val default_config : config

(** [fold_sdc config sdc] folds an SDC's analysis knobs into [config]:
    each uncertainty only ever tightens (the larger margin wins), and
    the SDC's early derate, when it sets one, overrides. *)
val fold_sdc : config -> Css_netlist.Sdc.t -> config

type t

(** [build ?config ?obs design] constructs the graph and runs a full
    propagation. [obs] (default {!Css_util.Obs.null}) receives the
    [timer.*] counters — the timer's only work accounting:
    [full_propagations], [incremental_updates], [forward_visits] and
    [backward_visits] (per-node recomputations), [arc_evals] (arc delay
    evaluations), [cone_nodes] (nodes visited by cone walks) and
    [endpoint_scans] (full endpoint scans by {!wns}, {!tns} and
    {!violated_endpoints}) — the paper's "Update" cost, reported per
    iteration by the scheduler.

    The timer keeps one max-corner delay per arc (the delay column).
    Only the forward recomputation of an arc's head evaluates it; the
    backward sweep, cone walks, {!arc_delay} and {!k_worst_paths} read
    it. A full propagation and a move or resize update re-evaluate every
    in-arc of every node they recompute; a latency update re-evaluates
    only the cell arcs whose tail slew it changed, and no net arc. *)
val build : ?config:config -> ?obs:Css_util.Obs.t -> Css_netlist.Design.t -> t

val graph : t -> Graph.t
val design : t -> Css_netlist.Design.t
val config : t -> config

(** {1 Propagation} *)

(** [update_latencies t ffs] incrementally re-propagates after the clock
    latencies of [ffs] changed (scheduled or physical, e.g. after
    reconnection). Equivalent to a full propagation but touches only the affected
    cones, each node at most once per direction, in work proportional to
    the nodes recomputed and their arcs (a level-bucket worklist, see
    DESIGN.md §4). Allocates only a constant under release inlining.
    @raise Not_found or Invalid_argument as {!Graph.ff_q_node} for a cell
    that is not an FF of the graph, with the timer untouched. *)
val update_latencies : t -> Css_netlist.Design.cell_id list -> unit

(** [update_moved_cells t cells] incrementally re-propagates after the
    placement of [cells] changed. Flip-flops among them, and the
    flip-flops an LCB among them drives, also get their clock latency
    refreshed. *)
val update_moved_cells : t -> Css_netlist.Design.cell_id list -> unit

(** [resize_cell t c master] swaps instance [c]'s library master (gate
    sizing), refreshes the affected timing arcs and loads, and
    incrementally re-propagates. Same preconditions as
    [Design.swap_master]. *)
val resize_cell : t -> Css_netlist.Design.cell_id -> string -> unit

(** {1 Node state} *)

(** [arrival t corner n] is the min (Early) or max (Late) arrival time.
    [neg_infinity]/[infinity] when no path reaches [n]. *)
val arrival : t -> corner -> Graph.node -> float

(** [required t corner n] is the required time ([infinity]/[neg_infinity]
    when unconstrained). *)
val required : t -> corner -> Graph.node -> float

(** [slack t corner n] is [required - arrival] for Late and
    [arrival - required] for Early; [infinity] when unconstrained. *)
val slack : t -> corner -> Graph.node -> float

val slew : t -> Graph.node -> float

(** {1 Scheduler-facing queries} *)

val endpoint_slack : t -> corner -> Graph.endpoint -> float

(** [launch_slack t corner l] is the slack at the launch pin of [l]: for
    [Late] this is Eq. (6)'s vertex weight [w^out] (the worst late slack
    over all of [l]'s outgoing timing paths); for [Early] the analogous
    worst early slack over outgoing paths. *)
val launch_slack : t -> corner -> Graph.launcher -> float

(** [edge_slack t corner ~launcher ~endpoint ~delay] evaluates Eq. (1) or
    (2) for a sequential edge given its pure combinational path [delay]
    (launch-pin-to-capture-pin, excluding clk-to-q) under the *current*
    latencies. *)
val edge_slack :
  t -> corner -> launcher:Graph.launcher -> endpoint:Graph.endpoint -> delay:float -> float

(** [wns t corner] / [tns t corner] scan every endpoint (one
    [timer.endpoint_scans] each). *)
val wns : t -> corner -> float

val tns : t -> corner -> float

(** [violations t corner] counts the endpoints with negative slack:
    [List.length (violated_endpoints t corner)] in one allocation-free
    scan (one [timer.endpoint_scans]). *)
val violations : t -> corner -> int

(** [violated_endpoints t corner] are endpoints with negative slack,
    worst first (one [timer.endpoint_scans]). *)
val violated_endpoints : t -> corner -> (Graph.endpoint * float) list

(** [arc_delay t corner a] is timing arc [a]'s entry of the delay column:
    its delay under the slews, loads and placement of the last
    propagation or update (min-corner delays are derated). O(1); it
    evaluates nothing. *)
val arc_delay : t -> corner -> int -> float

(** {1 Cone enumeration (extraction primitives)} *)

(** [cone_to_endpoint t corner e] walks the fan-in cone of [e] and returns
    every launcher that reaches [e] with its extreme pure path delay (max
    for [Late], min for [Early]), plus the number of graph nodes visited —
    the extraction cost the paper's Table I accounts as "#Extract Edge"
    work. *)
val cone_to_endpoint : t -> corner -> Graph.endpoint -> (Graph.launcher * float) list * int

(** [cone_from_launcher t corner l] is the symmetric fan-out walk used by
    the IC-CSS callback: every endpoint reached from [l] with its extreme
    path delay, plus nodes visited. *)
val cone_from_launcher : t -> corner -> Graph.launcher -> (Graph.endpoint * float) list * int

(** [cone t corner ~root ~forward] is the node-level walk behind
    {!cone_to_endpoint} and {!cone_from_launcher}: the reached endpoint
    (forward) or source (backward) nodes with their extreme pure path
    delays, plus the visited-node count, which it also adds to
    [timer.cone_nodes]. It walks through the timer's own scratch, so
    one walk runs at a time. *)
val cone : t -> corner -> root:Graph.node -> forward:bool -> (Graph.node * float) list * int

(** {1 Path tracing} *)

(** [worst_path t corner e] is the critical path into [e] as a pin list,
    launch pin first. Empty when no path reaches [e]. *)
val worst_path : t -> corner -> Graph.endpoint -> Css_netlist.Design.pin_id list

(** [k_worst_paths t corner e ~k] enumerates up to [k] distinct paths into
    [e] in criticality order (most negative slack first), each as
    [(slack, pins)] with the launch pin first. [k_worst_paths ~k:1]
    agrees with {!worst_path} and the endpoint slack. Implemented as a
    best-first search over backward path prefixes scored by the exact
    arrival they would realize — no path is materialized unless it is
    among the [k] best. *)
val k_worst_paths :
  t -> corner -> Graph.endpoint -> k:int -> (float * Css_netlist.Design.pin_id list) list
