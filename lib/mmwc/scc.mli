(** Strongly connected components (Tarjan, iterative).

    The scheduler uses SCCs to find sequential-graph cycles: any SCC with
    more than one vertex — or a self-loop — contains a cycle whose
    negative slack no skew assignment can eliminate (Section III-B2). *)

(** [components g] assigns each vertex a component id in [0..k-1];
    returns [(ids, k)]. Components are numbered in reverse topological
    order of the condensation. *)
val components : Digraph.t -> int array * int

(** [nontrivial g] lists the vertex sets of SCCs that contain a cycle
    (size >= 2, or a single vertex with a self-loop), in component-id
    order, each ascending. *)
val nontrivial : Digraph.t -> int list list

(** {1 Reusable form}

    The same algorithm over a {!Csr.t}, writing into a workspace that is
    reused across runs: a run allocates nothing once the workspace has
    grown to the graph's size, and its work is proportional to the
    graph's touched vertices and edges ({!Csr.num_verts}), not to its
    vertex count. *)

type workspace

(** [workspace ?n ()] is an empty workspace, pre-sized for graphs of [n]
    vertices (default 0); a run on a larger graph grows it. *)
val workspace : ?n:int -> unit -> workspace

(** [run ws g] computes the components of [g]'s touched vertices, roots
    taken in ascending order and successors in edge order — the
    numbering {!components} reports. *)
val run : workspace -> Csr.t -> unit

(** [num_cyclic ws] is the number of cyclic components of the last run;
    cyclic component [c] (in component-id order) has [cyclic_len ws c]
    members, [member ws (cyclic_first ws c + i)] ascending in [i], and
    component id [cyclic_id ws c]. *)
val num_cyclic : workspace -> int

val cyclic_first : workspace -> int -> int
val cyclic_len : workspace -> int -> int
val cyclic_id : workspace -> int -> int
val member : workspace -> int -> int

(** [comp ws v] is the component id of touched vertex [v]. *)
val comp : workspace -> int -> int
