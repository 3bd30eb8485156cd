(** FPM — the Fast Predictive Useful Skew Methodology baseline (Kim et
    al., DAC 2017), reconstructed for comparison.

    FPM computes *predictive* skews for hold (early) violations in one
    shot: it extracts the full early sequential graph once, then relaxes
    latency assignments over the static graph (no timing propagation
    between sweeps — that is what makes it "predictive" and also what
    leaves residual violations), bounded by the launch-side late slack
    read at extraction time. Extraction of the complete graph is the
    dominating cost, which is why the paper reports a 27x speedup of its
    own engine over FPM. *)

type result = {
  target_latency : float array;  (** per sequential-graph vertex *)
  sweeps : int;  (** relaxation sweeps until fixpoint *)
  vertices : Css_seqgraph.Vertex.t;  (** the vertex registry indexing [target_latency] *)
}

(** [run ?obs timer] computes predictive early skews (at most 50
    relaxation sweeps), applies them to the design as scheduled
    latencies and re-propagates the timer. Returns the result and the
    (full-graph) extraction statistics. [obs] receives the
    [extract.full.*] counters (FPM's dominating cost — the whole-graph
    extraction the paper's engine avoids), the [fpm.sweeps] counter, and
    one ["fpm.sweep"] snapshot per relaxation sweep. *)
val run :
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  result * Css_seqgraph.Extract.stats
