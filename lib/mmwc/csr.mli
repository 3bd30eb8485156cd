(** A reusable compressed-sparse-row digraph, the cycle solvers' working
    form.

    Vertices are [0 .. n-1]; the out-edges of [u] occupy positions
    [start u .. start (u+1) - 1], in the order the edges were given.
    Beside the adjacency, {!fill} records the vertices that touch an edge
    ({!verts}), so solvers can walk the part of the graph that has edges
    rather than every vertex. A [t] is meant to be refilled in place: its
    arrays grow to the largest graph seen and are never shrunk, so a
    refill of a graph no larger than before allocates nothing. *)

type t

(** [create ()] is an empty graph with no capacity. *)
val create : unit -> t

(** [fill t ~n ~m ~src ~dst ~w] replaces [t]'s contents with the [m]
    edges [(src.(i), dst.(i), w.(i))], [i < m], over vertices
    [0 .. n-1], dropping self-loops. {!verts} then lists the vertices
    touching a kept edge, in ascending order. O(n + m).
    @raise Invalid_argument on an out-of-range vertex id. *)
val fill : t -> n:int -> m:int -> src:int array -> dst:int array -> w:float array -> unit

(** [reserve t ~n ~m] grows [t]'s arrays to hold [n] vertices and [m]
    edges now, so that later fills up to that size allocate nothing. *)
val reserve : t -> n:int -> m:int -> unit

(** [of_digraph g] is [g] with every vertex in {!verts}; each vertex's
    out-edges are in the order they were given to {!Digraph.make}. *)
val of_digraph : Digraph.t -> t

val num_vertices : t -> int

(** [start t u] is the first position of [u]'s out-edges; [start t (u+1)]
    is one past the last. *)
val start : t -> int -> int

(** [dst t p] / [weight t p] are the head and weight of the edge at
    position [p]. *)
val dst : t -> int -> int

val weight : t -> int -> float

(** [num_verts t] / [vert t i] list the touched vertices (all of them
    for {!of_digraph}), ascending: [vert t 0 < vert t 1 < ...]. *)
val num_verts : t -> int

val vert : t -> int -> int
