(** Cycle handling (Section III-B2).

    The sum of edge weights around any sequential-graph cycle is invariant
    under every latency assignment, so a cycle whose mean weight is
    negative can never be made violation-free; the best achievable is to
    equalize every cycle edge at the mean [w^avg_C]. This module finds the
    critical (minimum-mean) cycle among the essential edges with Howard's
    policy iteration, computes the
    equalizing latency increments via Eq. (9) rewritten as
    [l_v = beta(v) * T - alpha(v)], shifts them to be non-negative, and
    reports the members so the scheduler can pin them. *)

type result = {
  members : Css_seqgraph.Vertex.id list;  (** cycle vertices, cycle order *)
  mean : float;  (** the cycle's mean weight [w^avg_C] *)
  increments : float array;  (** per-vertex latency increments (full size) *)
}

(** Scratch for {!schedule}: the MMWC solver's workspace and an [n]-slot
    increment array, reused across calls. *)
type workspace

val workspace : n:int -> workspace

(** [schedule ws g ~fixed ~hard_cap] is [Some r] when the negative-weight
    essential edges packed into [g] (by {!Css_mmwc.Csr.fill}, which drops
    self-loops: single-vertex cycles no skew can change) contain a cycle;
    the returned increments are clamped to [\[0, hard_cap\]] and are 0
    outside the cycle and on already-fixed members. The result's
    [increments] is [ws]'s own array: it stays valid until the next
    [schedule] on [ws], which zeroes it again. Work is proportional to
    [g]'s touched vertices and edges plus the cycle length. *)
val schedule :
  workspace ->
  Css_mmwc.Csr.t ->
  fixed:(int -> bool) ->
  hard_cap:(int -> float) ->
  result option
