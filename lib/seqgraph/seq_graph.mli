(** The (partial) sequential graph [G = (V, E', w)].

    Edges are stored in the *scheduling orientation*: raising the latency
    of an edge's destination by [delta] raises the edge weight (slack) by
    [delta], per Eq. (3). Concretely, for the late problem an edge runs
    launch FF -> capture FF with weight [s^L]; for the early problem it
    runs capture FF -> launch FF with weight [s^E]. One [t] therefore
    serves both phases with identical scheduling machinery.

    At most one edge is kept per (src, dst) pair — the minimum-slack
    timing path between the two sequential elements, which is the only
    one clock skew scheduling can act on.

    {b Storage layout.} Edges are dense ints indexing parallel columns
    (src, dst, weight, delay, encoded launcher/endpoint): the weight
    columns are flat [float array]s, so the per-iteration Eq. (10)
    update and the scheduler's negative-edge scan read unboxed floats
    with no per-edge record chasing. The timing launcher/endpoint of an
    edge is int-encoded and only materialized as a constructor by
    {!launcher} / {!endpoint}. See [docs/PERFORMANCE.md]. *)

type edge_id = int
(** Dense edge index in [0, num_edges), in insertion order. Edge ids are
    stable: edges are never removed. *)

type t

(** [create verts ~corner] is an empty graph for the given analysis
    corner. *)
val create : Vertex.t -> corner:Css_sta.Timer.corner -> t

(** [corner t] is the analysis corner the graph's scheduling orientation
    encodes (late: launch -> capture; early: capture -> launch). *)
val corner : t -> Css_sta.Timer.corner

(** [vertices t] is the vertex registry shared with the extractors. *)
val vertices : t -> Vertex.t

(** [num_edges t] is the current size of [E'] — for the paper's engine a
    small fraction of the full sequential graph (Fig. 2). O(1). *)
val num_edges : t -> int

(** {1 Edge columns}

    All accessors are O(1); [weight]/[delay] return unboxed floats from
    flat columns. *)

val src : t -> edge_id -> Vertex.id
val dst : t -> edge_id -> Vertex.id

val weight : t -> edge_id -> float
(** Current slack of the path under current latencies. *)

val delay : t -> edge_id -> float
(** Pure combinational path delay (launch pin to capture pin). *)

val set_weight : t -> edge_id -> float -> unit

(** [launcher t id] / [endpoint t id] decode the edge's timing-graph
    launcher/endpoint. O(1) but allocates the constructor — hot loops
    should work on vertex ids instead. *)
val launcher : t -> edge_id -> Css_sta.Graph.launcher

val endpoint : t -> edge_id -> Css_sta.Graph.endpoint

(** {1 Construction and lookup} *)

(** What {!add_edge} did to the graph's constraint set. *)
type outcome =
  | Inserted  (** a new vertex pair: the graph grew by one edge *)
  | Rebound
      (** a different timing path with a smaller weight now binds an
          already stored (collapsed supernode) pair: its weight, delay
          and launcher/endpoint labels were replaced *)
  | Refreshed
      (** the pair's binding path is unchanged: either the same path was
          re-extracted (its weight and delay are overwritten with the new
          values, the current truth) or a different path with an equal or
          larger weight collapsed onto it (only its endpoint is indexed) *)

(** [add_edge t ~launcher ~endpoint ~delay ~weight] inserts the edge in
    scheduling orientation and reports what changed. Different timing
    paths can collapse onto one vertex pair (port paths through a
    supernode); the pair keeps the worst of them, labels and delay
    together, so {!recompute_weight} always re-derives the stored path.
    Every endpoint that lands on a pair is indexed there for
    {!min_weight_from_endpoint}, whether or not its path binds.
    Amortized O(1) plus the pair's collapsed endpoint count. *)
val add_edge :
  t ->
  launcher:Css_sta.Graph.launcher ->
  endpoint:Css_sta.Graph.endpoint ->
  delay:float ->
  weight:float ->
  outcome

(** [collapsed_endpoints t id] lists, in first-seen order, the endpoints
    whose paths landed on edge [id] without binding it (other port
    paths through the same supernode pair). Empty for most edges.
    Snapshots replay them after the edge so a restored graph explains
    the same endpoints. *)
val collapsed_endpoints : t -> edge_id -> Css_sta.Graph.endpoint list

(** [find t ~src ~dst] is the stored edge between the pair, if any. O(1);
    allocates the option. *)
val find : t -> src:Vertex.id -> dst:Vertex.id -> edge_id option

(** [iter_edges t f] applies [f] to every edge id in insertion order
    (the scheduler's per-iteration walk over [E'], the [m'] in its
    O(k·m') bound). Allocation-free apart from what [f] does. *)
val iter_edges : t -> (edge_id -> unit) -> unit

(** [min_weight_from_endpoint t e] is the smallest current weight among
    stored edges that a path to [e] landed on, binding or collapsed
    ([infinity] when none) — used to decide whether a violated endpoint
    needs re-extraction.
    O(edges sharing the endpoint). *)
val min_weight_from_endpoint : t -> Css_sta.Graph.endpoint -> float

(** [apply_latency_delta t deltas] performs the Eq. (10) update:
    [w += deltas.(dst) - deltas.(src)] on every edge ([deltas] is indexed
    by vertex id). O(edges), allocation-free. *)
val apply_latency_delta : t -> float array -> unit

(** [recompute_weight t timer id] re-derives the edge's weight from the
    timer's current latencies via Eq. (1)/(2) — the reference the
    Eq. (10) shortcut is property-tested against. Does not store it. *)
val recompute_weight : t -> Css_sta.Timer.t -> edge_id -> float

(** [refresh_weights t timer] overwrites every edge weight with its
    {!recompute_weight} value — the scheduler's [verify_weights] mode and
    the flow's post-rollback resynchronization. O(edges). *)
val refresh_weights : t -> Css_sta.Timer.t -> unit

(** {1 Packed views}

    The core solvers (cycle detection, arborescence, two-pass
    assignment) consume an immutable packed copy of an edge subset —
    three parallel arrays they can index without touching the graph or
    allocating per edge. *)

type view = {
  v_n : int;  (** number of selected edges *)
  v_src : int array;  (** tail vertex per selected edge *)
  v_dst : int array;  (** head vertex per selected edge *)
  v_w : float array;  (** weight per selected edge, flat floats *)
}

(** [select ?reuse t pred] packs the edges satisfying [pred] (given the
    edge id), in insertion order. O(edges). The columns may be longer
    than [v_n]. With [reuse], the columns of that earlier view are
    overwritten in place when they are long enough for every edge (the
    earlier view is then stale), so a scheduler selecting every
    iteration allocates only when the graph has outgrown them. *)
val select : ?reuse:view -> t -> (edge_id -> bool) -> view

(** [view_of_list triples] packs explicit [(src, dst, weight)] triples —
    solver tests construct inputs without building a graph. *)
val view_of_list : (Vertex.id * Vertex.id * float) list -> view
