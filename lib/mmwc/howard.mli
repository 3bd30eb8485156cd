(** Howard's policy iteration for the minimum / maximum mean cycle.

    The fastest of the three solvers in practice (near-linear iterations
    on typical graphs, against Karp's rigid O(n*m) table), at the price
    of a less obvious termination argument: each vertex keeps one chosen
    out-edge (the policy); value determination computes the mean of the
    cycle its policy path reaches plus a bias, and policy improvement
    re-points edges that offer a smaller mean or a smaller bias. A
    fixpoint is a global optimum for deterministic average-cost problems,
    which the sequential-graph cycle bound is.

    Cross-validated against {!Karp} in the test suite. *)

(** [min_mean_cycle g] is [Some (mean, cycle)] with the cycle in order,
    [None] when [g] is acyclic. *)
val min_mean_cycle : Digraph.t -> (float * int list) option

(** [max_mean_cycle g] is the same on negated weights. *)
val max_mean_cycle : Digraph.t -> (float * int list) option

(** {1 Reusable form} *)

(** Scratch for {!min_mean_cycle_csr}: SCC and policy-iteration arrays,
    grown to the largest graph seen and reused. *)
type workspace

(** [workspace ?n ()] is pre-sized for graphs of [n] vertices (default
    0). *)
val workspace : ?n:int -> unit -> workspace

(** [min_mean_cycle_csr ws g] is {!min_mean_cycle} over a CSR graph,
    with the same result for the same edge order ({!Csr.of_digraph}).
    Work is proportional to the touched vertices and edges of [g]; once
    [ws] has grown, only the returned cycle list is allocated.
    @raise Invalid_argument on a non-finite edge weight. *)
val min_mean_cycle_csr : workspace -> Csr.t -> (float * int list) option
