(** Per-vertex latency bounds (Section III-C1).

    Raising a flip-flop's clock latency trades slack between the two
    corners. For the phase optimizing corner [c], a vertex [v] has:

    - a *same-corner margin*: the worst slack among [v]'s outgoing paths
      in the scheduling orientation, read straight off the timer with no
      extraction. It feeds the virtual-endpoint edge of the two-pass
      traversal, letting the lexicographic balance trade it off.
    - a *cross-corner hard cap* (Eq. 11): [max(0, s)] of the opposite
      corner's slack at the pin the latency raise would degrade. The
      timer refreshes it every iteration, which is what spares the
      algorithm from extracting constraint edges. *)

(** [margin timer verts corner v] is the same-corner outgoing margin of
    vertex [v] ([infinity] when unconstrained; meaningful for FF vertices
    only — supernodes return [0.]). *)
val margin :
  Css_sta.Timer.t -> Css_seqgraph.Vertex.t -> Css_sta.Timer.corner -> Css_seqgraph.Vertex.id -> float

(** [hard_cap timer verts corner v] is the Eq. (11) bound on this
    iteration's latency increment ([0.] for supernodes). *)
val hard_cap :
  Css_sta.Timer.t -> Css_seqgraph.Vertex.t -> Css_sta.Timer.corner -> Css_seqgraph.Vertex.id -> float

(** [fill timer verts corner g ~fixed ~margin ~hard_cap] writes
    [margin.(v)] and [hard_cap.(v)] — the values of {!margin} and
    {!hard_cap} — for every vertex [v] of [g] ({!Css_mmwc.Csr.vert})
    that is not [fixed], and returns the number of bounds read (two per
    such vertex). Other slots are left as they were. The scheduler's
    per-iteration form: O(vertices of [g]), allocation-free under
    release inlining. *)
val fill :
  Css_sta.Timer.t ->
  Css_seqgraph.Vertex.t ->
  Css_sta.Timer.corner ->
  Css_mmwc.Csr.t ->
  fixed:(int -> bool) ->
  margin:float array ->
  hard_cap:float array ->
  int
