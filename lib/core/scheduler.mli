(** The iterative clock skew scheduler — Algorithm 1 of the paper.

    The scheduler runs over any {!Css_seqgraph.Extract} engine, wrapped
    once by {!extraction_of}: the paper's iterative essential
    extraction, the exhaustive reference, or the IC-CSS+ baseline, whose
    callback extraction and Eq. (11) constraint-edge step
    ({!Css_seqgraph.Extract.cap_hit}) live in the engine itself:

    {v
    repeat
      extract / update the partial sequential graph          (line 3)
      if the essential edges contain a (min-mean) cycle then
        cycle latency calculation; pin the cycle; continue   (lines 5-9)
      build the non-negative arborescence                    (line 4)
      two-pass latency calculation                           (line 10)
      accumulate l*; apply latencies; propagate              (lines 11-12)
    until no vertex received an increment                    (line 13)
    v}

    Latencies are applied as scheduled (virtual) latencies on the design;
    the slack-optimization phase later realizes them physically. *)

(** Increments at or below [eps] (1e-6 ps) terminate the loop. *)
val eps : float

type config = {
  max_iterations : int;  (** safety cap on the repeat loop *)
  verify_weights : bool;
      (** re-derive every stored edge weight from the timer each iteration
          instead of trusting the Eq. (10) update — a debugging mode *)
  nonneg_rule : bool;
      (** enforce the Section III-C2 admission rule [w < w^out] during
          arborescence construction; disabling it is the DESIGN.md A4
          ablation *)
  should_stop : (unit -> bool) option;
      (** cooperative interrupt, polled at the top of every iteration
          before any work; returning [true] stops the run with
          {!Interrupted} and the latencies applied so far. The flow
          wires the SIGINT/SIGTERM flag and hard budget pressure here
          (default [None]) *)
}

val default_config : config

(** How the scheduler obtains sequential edges. Build it with
    {!extraction_of}. *)
type extraction = {
  extract : unit -> Css_seqgraph.Extract.outcome;
      (** run one extraction round against the timer's current state;
          a zero-increment iteration ends the run {!Converged} only when
          the round's outcome changed nothing and was not truncated *)
  engine : Css_seqgraph.Extract.t;
      (** the engine whose partial sequential graph
          ({!Css_seqgraph.Extract.graph}) the scheduler solves, and which
          {!Css_seqgraph.Extract.cap_hit} is told of every vertex whose
          Eq. (11) cross-corner cap was the binding constraint *)
}

(** [extraction_of ?limit engine] runs [Extract.round ?limit engine] as
    each iteration's extraction round ([limit] caps the endpoints an
    [Essential] round walks; default unlimited). *)
val extraction_of : ?limit:int -> Css_seqgraph.Extract.t -> extraction

type iteration = {
  index : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  edges_in_graph : int;
  edges_new : int;  (** edges this iteration's extraction round added to the graph *)
  handled_cycle : bool;
  max_increment : float;
}

(** Why the repeat loop ended. *)
type stop_reason =
  | Converged
      (** no increment above [eps] and extraction quiescent: the round
          neither inserted nor rebound an edge and was not truncated *)
  | Max_iterations  (** the [max_iterations] safety cap fired *)
  | Stalled
      (** six consecutive iterations without TNS improvement at the
          scheduling corner *)
  | Interrupted  (** [should_stop] returned [true] (signal / hard budget) *)

(** [stop_reason_name r] is the stable string form used in logs and the
    [sched.phase] snapshots: ["converged"], ["max-iterations"],
    ["stalled"] or ["interrupted"]. *)
val stop_reason_name : stop_reason -> string

type result = {
  target_latency : float array;
      (** per-vertex accumulated [l*] relative to the run's start *)
  iterations : int;
  cycles_handled : int;
  stop_reason : stop_reason;
  best_restored : bool;
      (** the run ended on its best state rather than its final one:
          the scheduler keeps one snapshot (scheduled latencies and
          accumulated [l*]) of the best state seen — at iteration 0 and
          on each TNS improvement, ties to the later — and a run that
          ends {!Stalled} or at {!Max_iterations} restores it when it
          beats the final state. [target_latency] reflects the restored
          state *)
  trace : iteration list;  (** chronological, one record per iteration *)
}

(** [run ?config ?obs timer extraction] executes Algorithm 1 for the
    corner of [extraction.engine]'s graph, mutating the design's scheduled
    latencies and the timer.

    [obs] (default {!Css_util.Obs.null}) receives the [sched.*]
    counters — [iterations], [cycles_pinned] (lines 5-9),
    [arborescence_builds] (line 4), [two_pass_sweeps] (line 10),
    [bound_refreshes] (the Eq. (5)/(11) reads that replace constraint
    -edge extraction), [latency_increments] (vertices raised on line
    11) — and one ["sched.iter"] snapshot per iteration carrying both
    corners' WNS/TNS, the partial graph's edge count, the edges the
    iteration's extraction round added ([edges_new]) and the maximum
    increment (the Fig. 8 trajectory). *)
val run : ?config:config -> ?obs:Css_util.Obs.t -> Css_sta.Timer.t -> extraction -> result
