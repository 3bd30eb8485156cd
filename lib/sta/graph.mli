(** The gate-level timing graph.

    Nodes are *data* pins: combinational cell pins, flip-flop D and Q
    pins, and primary-port pins. The clock network (clock-root port, LCB
    pins, FF CK pins) is deliberately absent — clock latency is computed
    analytically by the design database, which is what lets clock skew
    scheduling change latencies without touching graph topology.

    Arcs are either cell arcs (input pin to output pin of one instance,
    carrying a delay model) or net arcs (driver pin to one sink pin,
    carrying Elmore wire delay evaluated from current placement).

    {b Storage layout.} Nodes and arcs are dense ints; adjacency is
    compressed sparse rows (CSR) in both directions, and per-node
    launcher/endpoint classification is int-encoded (no option cells).
    {!csr_out} and friends expose the raw columns so the timer's
    propagation loops can run without closures or allocation; everything
    they return is owned by the graph and must be treated as read-only.
    See [docs/PERFORMANCE.md].

    Topology is immutable after {!build}: LCB reconnection only rewires
    clock nets, and cell movement only changes arc *delays*. *)

type node = int
(** Dense node index in [0, num_nodes). *)

type launcher =
  | Launch_ff of Css_netlist.Design.cell_id
  | Launch_port of Css_netlist.Design.port_id

type endpoint =
  | End_ff of Css_netlist.Design.cell_id
  | End_port of Css_netlist.Design.port_id

type arc_kind =
  | Cell_arc of Css_liberty.Delay_model.t
  | Net_arc

type t

(** [build design] constructs the graph and its topological order.
    O(pins + arcs).
    @raise Failure if the combinational network contains a cycle. *)
val build : Css_netlist.Design.t -> t

val num_nodes : t -> int
val num_arcs : t -> int

(** [node_of_pin t p] is the node for data pin [p], or [None] for clock
    pins, other excluded pins, and pins created after the build (e.g.
    by CTS). O(1); allocates the option. *)
val node_of_pin : t -> Css_netlist.Design.pin_id -> node option

(** [pin_of_node t n] is the design pin behind node [n]. O(1). *)
val pin_of_node : t -> node -> Css_netlist.Design.pin_id

(** [level t n] is the topological level (sources are 0). O(1). *)
val level : t -> node -> int

(** [topo_order t] lists all nodes in a valid topological order. O(1) —
    returns the graph-owned array; do not mutate. *)
val topo_order : t -> node array

(** [iter_out t n f] / [iter_in t n f] visit incident arcs; [f] receives
    the arc id and the neighbour node. O(degree). *)
val iter_out : t -> node -> (int -> node -> unit) -> unit

val iter_in : t -> node -> (int -> node -> unit) -> unit

(** [arc_kind t a] is arc [a]'s delay kind, [0 <= a < num_arcs]. O(1). *)
val arc_kind : t -> int -> arc_kind

(** [refresh_cell_arcs t c] re-reads the delay models of instance [c]'s
    cell arcs from its (possibly swapped) master. Topology must be
    unchanged — guaranteed by [Design.swap_master]'s interface check.
    O(#arcs of [c] * out-degree). *)
val refresh_cell_arcs : t -> Css_netlist.Design.cell_id -> unit

(** [arc_from t a] / [arc_to t a] are arc [a]'s tail and head node. O(1). *)
val arc_from : t -> int -> node

val arc_to : t -> int -> node

(** [sources t] are launch nodes: FF Q pins and input-port pins. O(1) —
    graph-owned array, do not mutate. *)
val sources : t -> node array

(** [endpoints t] are capture nodes: FF D pins and output-port pins.
    O(1) — graph-owned array, do not mutate. *)
val endpoints : t -> node array

(** [launcher_of_node t n] classifies a source node. O(1); allocates the
    returned constructor — hot loops should gate on {!is_source} first.
    @raise Invalid_argument if [n] is not a source. *)
val launcher_of_node : t -> node -> launcher

(** [endpoint_of_node t n] classifies an endpoint node. O(1); allocates
    the returned constructor.
    @raise Invalid_argument if [n] is not an endpoint. *)
val endpoint_of_node : t -> node -> endpoint

(** [is_source t n] / [is_endpoint t n] are single int compares. O(1),
    allocation-free. *)
val is_source : t -> node -> bool

val is_endpoint : t -> node -> bool

(** [source_of_launcher t l] is the launch node of [l] (Q pin or port pin).
    O(1) as {!ff_q_node}. *)
val source_of_launcher : t -> launcher -> node

(** [node_of_endpoint t e] is the capture node of [e]. O(1) as
    {!ff_d_node}. *)
val node_of_endpoint : t -> endpoint -> node

(** [ff_q_node t ff] / [ff_d_node t ff] are the FF's graph nodes. O(1)
    (an array read) for the FFs present at {!build}; any other cell —
    one added after the build, e.g. by CTS — falls back to the pin-name
    lookup, O(#pins of [ff]).
    @raise Not_found if [ff] has no Q (resp. D) pin.
    @raise Invalid_argument if that pin is not in the graph. *)
val ff_q_node : t -> Css_netlist.Design.cell_id -> node

val ff_d_node : t -> Css_netlist.Design.cell_id -> node

(** {1 Raw columns}

    Zero-copy views of the graph's internal arrays, for allocation-free
    inner loops (the timer's propagation and cone walks). All returned
    arrays are graph-owned and read-only; indices follow the CSR
    convention: arcs incident to node [n] occupy [start.(n) ..
    start.(n+1) - 1] of the ids array. Each call is O(1) and allocates
    only the returned pair. *)

(** [node_pins t] is the node-to-design-pin column, indexed by node. *)
val node_pins : t -> Css_netlist.Design.pin_id array

(** [launcher_codes t] / [endpoint_codes t] are the per-node encoded
    launcher/endpoint classifications: [-1] for a plain node,
    [2 * cell_id] for an FF, [2 * port_id + 1] for a port — decode with
    [code land 1] (0 = FF) and [code lsr 1]. The encoding lets the
    timer's source/endpoint handling run without materializing
    {!launcher} / {!endpoint} constructors. *)
val launcher_codes : t -> int array

val endpoint_codes : t -> int array

(** [csr_out t] is [(out_start, out_arc_ids)]. *)
val csr_out : t -> int array * int array

(** [csr_in t] is [(in_start, in_arc_ids)]. *)
val csr_in : t -> int array * int array

(** [arc_tails t] / [arc_heads t] are the per-arc tail/head node columns,
    indexed by arc id. *)
val arc_tails : t -> int array

val arc_heads : t -> int array

(** [arc_kinds t] is the per-arc kind column, indexed by arc id. *)
val arc_kinds : t -> arc_kind array

(** [levels t] is the per-node topological-level column. *)
val levels : t -> int array
