(** Non-negative latency arborescence construction (Section III-C2).

    Edges are attached in ascending weight order; a vertex accepts at most
    one incoming tree edge, and an edge [e(u,v)] is admitted only when its
    weight is strictly below the vertex out-weight [w^out_v] (Eq. 6) — the
    condition the paper proves keeps weights non-decreasing from root to
    leaf, which in turn keeps all two-pass latencies non-negative.

    Vertices that never receive a parent are roots ([alpha = 0],
    [beta = 0]); the path functions of Eq. (7) are computed for everyone
    else. *)

type t

(** [create ~n] is an empty forest over vertices [0..n-1] (every vertex
    a root) with scratch for {!build_into}. *)
val create : n:int -> t

(** [build_into t ~fixed ~out_weight edges] rebuilds [t] in place as the
    forest over a packed edge view. [fixed v] vertices never receive a
    parent (their latency is pinned); [out_weight.(v)] is Eq. (6)'s
    vertex weight, as reported by the timer over *all* outgoing paths,
    read only for the heads [v] of admissible edges. Self-loops and
    edges that would close a cycle are skipped. It undoes only what the
    previous build set, so the cost is O(m log m) in the selected edges
    (the weight sort) plus the ancestor checks, not O(n); once [t]'s
    sort buffer has grown it allocates nothing. *)
val build_into :
  t -> fixed:(int -> bool) -> out_weight:float array -> Css_seqgraph.Seq_graph.view -> unit

(** [parent t v] is the tree parent ([-1] for roots). *)
val parent : t -> int -> int

(** [parent_weight t v] is the weight of [v]'s incoming tree edge.
    @raise Invalid_argument on a root. *)
val parent_weight : t -> int -> float

(** [alpha t v] / [beta t v] are Eq. (7)'s path weight sum and length. *)
val alpha : t -> int -> float

val beta : t -> int -> int

(** [is_root t v] holds when [v] has no tree parent — fixed vertices and
    vertices no admissible edge reached. *)
val is_root : t -> int -> bool

(** [children t v] are the vertices whose tree parent is [v], the
    forward-pass fan-out of the Eq. (14) traversal. *)
val children : t -> int -> int list

(** [skipped_cycle_edges t] counts admissible edges rejected only because
    they would have closed a cycle — zero whenever the caller removed
    cyclic structures first, asserted by the scheduler. *)
val skipped_cycle_edges : t -> int
