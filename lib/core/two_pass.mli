(** Two-pass latency calculation (Section III-C3, Eq. 12-14).

    Pass 1 walks the essential DAG in reverse topological order and
    computes each vertex's maximum allowable latency [l^max] from the
    averaged continuation through its successors (Eq. 12-13), including a
    virtual endpoint carrying the timer-reported same-corner margin and
    the Eq. (11) cross-corner hard cap. Pass 2 walks forward and assigns
    the actual increment [l_v = min(l^max_v, l_parent - w_parent)]
    (Eq. 14) along arborescence edges.

    All returned increments are non-negative; fixed vertices get 0. *)

type result = {
  l : float array;  (** the latency increments [l^k] of this iteration *)
  l_max : float array;  (** Eq. (13) after clamping *)
  w_avg : float array;  (** Eq. (12) *)
}

(** Scratch for {!run}: [n]-slot result arrays and the topological
    order, reused across calls. *)
type workspace

val workspace : n:int -> workspace

(** [run ws g ~arb ~fixed ~margin ~hard_cap] runs both passes over the
    essential edges packed into [g] (by {!Css_mmwc.Csr.fill}), visiting
    only the vertices that touch one ({!Css_mmwc.Csr.vert}). The edges
    must form a DAG (the scheduler removes cycles first). The bounds are
    arrays indexed by vertex, read only for the non-fixed vertices of
    [g] (see {!Bounds.fill}). Vertices outside [g]
    are left at [l = 0], [l_max = 0], [w_avg = neg_infinity]: with no
    essential edge a vertex is an arborescence root, whose increment is
    0 whatever its bounds. The result is [ws]'s own arrays, valid until
    the next [run] on [ws]. O(vertices + edges of [g]), allocation-free.
    @raise Invalid_argument if a cycle is detected among the edges. *)
val run :
  workspace ->
  Css_mmwc.Csr.t ->
  arb:Arborescence.t ->
  fixed:(int -> bool) ->
  margin:float array ->
  hard_cap:float array ->
  result
