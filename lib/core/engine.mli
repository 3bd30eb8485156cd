(** Wiring of the extraction engines into the scheduler.

    Each entry point builds a {!Css_seqgraph.Extract} engine over a fresh
    vertex registry of the timer's design and hands it to
    {!Scheduler.run} through {!Scheduler.extraction_of}, so every
    scheduler iteration runs one extraction round.

    - [Essential] (the paper's engine, {!ours}/{!run_ours}): the
      iterative essential extraction of Section III-B. The Eq. (11) caps
      come from the timer for free, so a binding cap costs nothing.
    - [Iccss] (IC-CSS+, Section III-E): Albrecht's IC-CSS with the
      paper's three modifications — (i) cycle latency calculation
      instead of the minimum-period termination, (ii) constraint-edge
      extraction when a latency hits its Eq. (11) cap, and (iii) the
      same two-pass latency calculation as the proposed algorithm. The
      scheduler supplies (i) and (iii); the engine supplies the callback
      extraction (all outgoing edges of every Eq. (8)-critical vertex)
      and charges (ii) in {!Css_seqgraph.Extract.cap_hit}. Its
      extraction statistics therefore reflect the over-extraction the
      paper measures against.
    - [Full]: the exhaustive reference extraction. *)

(** [ours ?obs timer ~corner] is the [Essential] engine's extraction
    plus its statistics record. [obs] feeds the [extract.essential.*]
    counters. *)
val ours :
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.extraction * Css_seqgraph.Extract.stats

(** [run ?config ?obs ~engine timer ~corner] builds [engine] and runs
    Algorithm 1 over it at [corner]; [obs] receives the engine's
    [extract.<engine>.*] counters and the scheduler's [sched.*] counters
    and per-iteration snapshots, so every engine runs under the same
    instrumentation. Returns the scheduler's result and the engine's
    statistics. *)
val run :
  ?config:Scheduler.config ->
  ?obs:Css_util.Obs.t ->
  engine:Css_seqgraph.Extract.engine ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.result * Css_seqgraph.Extract.stats

(** [run_ours ?config ?obs timer ~corner] is
    [run ?config ?obs ~engine:Essential timer ~corner]. *)
val run_ours :
  ?config:Scheduler.config ->
  ?obs:Css_util.Obs.t ->
  Css_sta.Timer.t ->
  corner:Css_sta.Timer.corner ->
  Scheduler.result * Css_seqgraph.Extract.stats
