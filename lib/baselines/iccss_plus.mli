(** IC-CSS+ — the modified incremental clock skew scheduling baseline
    (Section III-E).

    Albrecht's IC-CSS with the paper's three modifications: (i) cycle
    latency calculation instead of the minimum-period termination, (ii)
    constraint-edge extraction when a latency hits its Eq. (11) cap, and
    (iii) the same two-pass latency calculation as the proposed
    algorithm. The shared {!Css_core.Scheduler} supplies (i) and (iii);
    this module supplies the callback extraction — all outgoing edges of
    every Eq. (8)-critical vertex — and charges (ii) through the
    scheduler's cap hook. The extraction statistics therefore reflect the
    over-extraction the paper measures against. *)

(** [run ?config ?obs timer ~corner] executes the baseline end to end
    under the same scheduler instrumentation as the paper's engine, so
    per-iteration comparisons are apples-to-apples. *)
val run :
  ?config:Css_core.Scheduler.config ->
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Css_core.Scheduler.result * Css_seqgraph.Extract.stats
