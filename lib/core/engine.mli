(** Wiring of the paper's extraction engine into the scheduler.

    [ours timer ~corner] pairs {!Scheduler.run} with the iterative
    essential extraction of Section III-B: each scheduler iteration runs
    one Update-Extract round, and the Eq. (11) caps come from the timer
    for free, so [on_cap_hit] does nothing. *)

(** [ours ?obs timer ~corner] is the extraction plus its
    statistics record. [obs] feeds the [extract.essential.*] counters. *)
val ours :
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.extraction * Css_seqgraph.Extract.stats

(** [run_ours ?config ?obs timer ~corner] builds the engine and
    runs Algorithm 1; [obs] additionally receives the scheduler's
    [sched.*] counters and per-iteration snapshots. *)
val run_ours :
  ?config:Scheduler.config ->
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.result * Css_seqgraph.Extract.stats

(** [run_full ?config ?obs timer ~corner] builds the full-graph
    engine and runs Algorithm 1 over it. *)
val run_full :
  ?config:Scheduler.config ->
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.result * Css_seqgraph.Extract.stats
