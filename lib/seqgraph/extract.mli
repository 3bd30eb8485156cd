(** Sequential-graph extraction engines behind one entry point.

    {!run} populates a {!Seq_graph.t} from the gate-level timing graph
    with one of three engines, reproducing the paper's comparison:

    - {!Full}: exhaustive extraction — every launcher's fan-out cone.
      The reference engine; [O(n*m')]. Extraction happens inside {!run};
      the first {!round} reports the edge count, later rounds return 0.
    - {!Iccss}: Albrecht's callback extraction — a one-time global
      outgoing-delay bound per vertex, and on criticality (Eq. 8) *all*
      outgoing edges of the vertex are materialized, essential or not.
    - {!Essential}: the paper's Update-Extract mechanism — after each
      timing propagation, only endpoints whose violation is not yet
      explained by already-extracted edges are walked, and only
      negative-slack edges are materialized. [O(k*m')].

    A round first selects its work items (Essential's violated-endpoint
    cut, IC-CSS's criticality test) against pre-round state, then walks
    them in order through {!Css_sta.Timer.cone}, inserting each item's
    kept candidates in enumeration order. The graph — edge ids,
    insertion order, weights — and all stats and counters are therefore
    a function of the timer state alone.

    {2 Stats and observability}

    All engines share a {!stats} record. [edges_extracted] is the number
    the paper's Table I reports as "#Extract Edge": the edges that grew
    the graph ([edges_new]) plus, for IC-CSS, the constraint edges its
    callback enumerates. [re_extractions] counts kept candidates that
    landed on an already stored vertex pair (a re-walked endpoint, or a
    port path collapsing onto another port's supernode pair). Counters
    are flushed once per round, so {!Css_util.Obs.null} stays
    allocation-free. Engines report into the [extract.<engine>.*]
    counter namespace: [edges] (graph growth), [re_extractions],
    [candidate_edges] (cone results examined, kept or not — for
    {!Essential} the gap between candidates and kept edges is the
    over-extraction avoided), [endpoints_walked],
    [cone_nodes], [rounds] and [cone_walks] (cone traversals: one per
    walked endpoint, or per launcher/endpoint an IC-CSS supernode
    stands for). See [docs/OBSERVABILITY.md]. *)

type stats = {
  mutable edges_extracted : int;
      (** the paper's "#Extract Edge": [edges_new], plus the constraint
          edges {!cap_hit} charges to [Iccss] *)
  mutable edges_new : int;  (** kept edges that grew the graph *)
  mutable re_extractions : int;
      (** kept edges that landed on an already stored vertex pair (not
          checkpointed: a restored engine counts from its restore on) *)
  mutable cone_nodes : int;  (** gate-level nodes visited while extracting *)
  mutable rounds : int;  (** extraction rounds performed *)
}

(** {1 The unified engine API} *)

(** Which extraction strategy {!run} instantiates. *)
type engine = Full | Essential | Iccss

(** [engine_name e] is ["full"], ["essential"] or ["iccss"] — the
    [extract.<engine>.*] counter namespace component. *)
val engine_name : engine -> string

(** A live extraction engine: a growing sequential graph plus the
    engine-specific incremental state ({!Essential}'s known-weight
    tests, {!Iccss}'s bound and expansion flags). *)
type t

(** [run ?obs ~engine timer verts ~corner] instantiates
    [engine] over [timer]'s design at [corner], starting from an empty
    graph (for [Full], the one-time exhaustive extraction happens here). *)
val run :
  ?obs:Css_util.Obs.t ->
  engine:engine ->
  Css_sta.Timer.t ->
  Vertex.t ->
  corner:Css_sta.Timer.corner ->
  t

(** What one {!round} did. *)
type outcome = {
  added : int;
      (** [Essential] and [Full]: kept edges that changed the graph's
          constraint set — inserted, or rebinding a collapsed pair to a
          worse path (a re-extracted path that only refreshes its stored
          values does not count). [Iccss]: vertices newly expanded. *)
  truncated : bool;
      (** the round stopped at its [?limit] with endpoints still needing
          a walk, so [added = 0] does not mean extraction is quiescent *)
}

(** [round ?limit t] performs one extraction round against the timer's
    current state:

    - [Essential]: every violated endpoint whose worst slack is not
      explained by an already-extracted edge is cone-walked (at most
      [limit] of them — the DESIGN.md A1 ablation and the flow's
      cheap-extraction rung; default unlimited), and the negative-slack
      edges found are added. Call after each timing propagation.
    - [Iccss]: fires the callback for every vertex that is critical
      under current latencies and not yet expanded — *all* of its
      outgoing sequential edges are materialized ([limit] is ignored).
      The criticality cushion (the current worst negative slack) costs
      one endpoint scan per round.
    - [Full]: the graph was built by {!run}; the first call reports its
      edge count, subsequent calls report 0 ([limit] is ignored). *)
val round : ?limit:int -> t -> outcome

(** [cap_hit t v] is IC-CSS+'s Section III-E(ii) step, which the
    scheduler calls when vertex [v]'s Eq. (11) cross-corner cap was the
    binding constraint. On an [Iccss] engine it enumerates every
    cross-corner constraint edge of [v]'s flip-flop (its incoming early
    paths when optimizing late, and vice versa; [v] is mapped through
    the engine's own vertex registry, and a supernode has none) and
    charges them to [edges_extracted], [cone_nodes] and the
    [extract.iccss.constraint_edges] counter. On [Essential] and [Full]
    engines it does nothing: the paper's engine reads the caps from the
    timer for free. *)
val cap_hit : t -> Vertex.id -> unit

val graph : t -> Seq_graph.t
val stats : t -> stats
val engine : t -> engine

(** {1 Durable snapshots}

    A {!snapshot} captures everything that makes a live engine's future
    behaviour differ from a freshly created one — the partial graph's
    edges in insertion order (insertion order defines the solvers' input
    order, hence bit-determinism), the stats accounting, [Full]'s
    pending first-round count, and IC-CSS's one-time bound and expansion
    flags (restored, never recomputed: the bound reads arc delays, which
    change when the flow resizes cells). {!Css_flow.Persist} serializes
    these to disk. *)

type edge_snap = {
  es_launcher : Css_sta.Graph.launcher;
  es_endpoint : Css_sta.Graph.endpoint;
  es_delay : float;
  es_weight : float;
}

type snapshot = {
  sn_engine : engine;
  sn_edges : edge_snap list;
      (** insertion order, each edge followed by one entry per endpoint
          collapsed onto it (same launcher, delay and weight: replaying
          it only re-indexes the endpoint) *)
  sn_edges_extracted : int;
  sn_cone_nodes : int;
  sn_rounds : int;
  sn_pending_first : int;
  sn_bound : float array;  (** [Iccss] only, [[||]] otherwise *)
  sn_expanded : bool array;  (** [Iccss] only, [[||]] otherwise *)
}

val snapshot : t -> snapshot

(** [restore ?obs snap timer verts ~corner] rebuilds a live engine
    from a snapshot against a (reparsed) design's timer and vertex
    registry: replays the edges in order into a fresh graph and restores
    the stats ([edges_new] is the replayed edge count, [re_extractions]
    restarts at 0) and the engine-specific state without re-running any
    extraction (in particular [Full]'s exhaustive pass and [Iccss]'s
    bound DP do not rerun). The snapshot's dense cell/port ids must come from a design
    text round-trip of the same design ({!Css_flow.Flow.clone}
    semantics), which preserves them. *)
val restore :
  ?obs:Css_util.Obs.t ->
  snapshot ->
  Css_sta.Timer.t ->
  Vertex.t ->
  corner:Css_sta.Timer.corner ->
  t
