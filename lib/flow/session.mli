(** Resident clock skew scheduling sessions — the session-first surface
    behind both {!Flow} and the [css_serve] daemon.

    A session owns everything the paper's iterative loop keeps warm
    between latency changes: the loaded design, the incremental timer,
    the extraction engines with their partially extracted sequential
    graph and the degradation rung. {!open_} loads a
    design without scheduling anything;
    {!step} advances the CSS+OPT interleaving one phase at a time;
    {!finish} drains the remaining phases and scores the run;
    {!apply_delta} edits the design in place, re-propagates only the
    affected cones (the paper's Update step, applied across requests)
    and re-schedules; {!close} ends the session.

    One-shot use is [Flow.run], which is exactly
    [open_ |> finish |> close]. Long-running use — the CSS-as-a-service
    story — keeps the session open and feeds it deltas: each
    {!apply_delta} answers from the warm timer instead of rebuilding,
    with a from-scratch fallback rung when the delta invalidates too
    much (more than a quarter of all cells, netlist ECOs,
    analysis-corner changes).

    Determinism contract: a drained session computes bitwise what the
    historical single-shot flow computed, and an {!apply_delta} answer
    is bitwise the answer of a fresh [Flow.run] on the post-delta design
    given the same configuration — the warm incrementally-updated timer
    is exact, not approximate ({!Css_oracle.Oracles.check_eco_identity}
    enforces this).

    {2 Hardening}

    Every run inside a session is guarded end to end (see
    [docs/ROBUSTNESS.md]):

    - {b ingress validation}: {!Css_netlist.Validate.run} checks and (by
      default) repairs the design before any timing is built; a fatally
      degenerate design raises {!Css_netlist.Validate.Invalid} instead
      of corrupting a run;
    - {b watchdogs}: a cross-phase stall detector (four consecutive
      phases without worst-slack improvement stop the run as
      ["stalled"]); the run's one wall-clock watchdog is [budget]'s
      wall limit, below;
    - {b checkpoint / rollback}: after validation and after every phase
      the evaluator scores the physically realized state and the
      best-scoring checkpoint (latencies, positions, masters, FF-LCB
      binding) is kept; if the run ends worse than its best checkpoint,
      the design is restored and the result reports [rolled_back =
      true]. A run can therefore never end worse than its input;
    - {b resource governance}: an optional {!Css_util.Budget} (wall
      clock + resident set) polled at phase and scheduler-iteration
      boundaries. Soft pressure walks a degradation ladder — switch to
      the cheapest extraction, early-stop — one rung per poll; a hard limit stops the flow with its best result
      and [stop_reason = "budget-wall"/"budget-rss"];
    - {b crash-safe persistence}: with [checkpoint_dir] set, the full
      resumable state ({!Persist.progress} plus design and engines) is
      written once as a base, then journaled: at every run start and
      after every completed phase one small record of what changed is
      appended and fsynced ({!Persist.write}), and {!reopen} (base +
      replay) continues a killed run to a final result bitwise
      identical to an uninterrupted one, under the settings
      ({!Persist.settings}) the base and every record carry. Under
      {!Persist.with_signal_handlers} (or a daemon's
      {!Persist.install_handlers}), SIGINT/SIGTERM become a cooperative
      stop whose last act is that same durable checkpoint; the session
      itself never installs handlers. *)

type t

(** {1 Types}

    {!Flow} includes this module, so every type below is also a [Flow]
    type. *)

type algo =
  | Ours  (** iterative essential extraction, both corners *)
  | Ours_early  (** early corner only (the FPM comparison row) *)
  | Iccss_plus  (** the modified IC-CSS baseline, both corners *)
  | Fpm  (** fast predictive useful skew, early only *)

val algo_name : algo -> string

(** [algo_of_name s] inverts {!algo_name}; [None] on unknown names. *)
val algo_of_name : string -> algo option

(** One sample of the optimization trajectory, for Fig. 8. *)
type trace_point = Persist.trace_point = {
  round : int;
  phase : string;  (** "start", "early-css", "early-opt", "late-css", "late-opt" *)
  iter : int;  (** scheduler iteration within the phase; 0 for OPT points *)
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

type result = {
  algo : string;
  benchmark : string;
  report : Css_eval.Evaluator.report;  (** final, physically realized state *)
  css_seconds : float;
  opt_seconds : float;
  total_seconds : float;
  extracted_edges : int;
  cone_nodes : int;
  css_iterations : int;
  hpwl_increase_pct : float;  (** vs. the design at run start *)
  stop_reason : string;
      (** why the round loop ended: ["clean"] (no violations left),
          ["max-rounds"], ["stalled"], ["interrupted"]
          (SIGINT/SIGTERM or a debug interrupt), or
          ["budget-wall"]/["budget-rss"] (hard budget limit) *)
  rolled_back : bool;
      (** the final state scored worse than an earlier checkpoint and the
          design was restored to that checkpoint; [report] scores the
          restored design (after a rollback past CTS, the LCBs it
          inserted stay on the clock root net and count in [hpwl]) *)
  degradations : string list;
      (** chronological ladder steps taken under soft budget pressure,
          as ["<step>(<reason>)"] — e.g. ["cheap-extraction(wall)"]; empty when
          the budget never tripped *)
  resumed : bool;  (** this result continues a reopened checkpoint *)
  validation : Css_util.Diag.t list;
      (** everything ingress validation found (repaired or warned);
          empty when [validate = false] or the design was pristine *)
  trace : trace_point list;  (** chronological *)
}

type config = {
  rounds : int;  (** CSS+OPT rounds per corner (default 3) *)
  timer : Css_sta.Timer.config;  (** analysis corner setup (derates, uncertainties) *)
  use_resize : bool;
      (** also run the gate-sizing passes in each OPT phase (the paper's
          "logic path optimization" extension; default false) *)
  use_cts : bool;
      (** realize latency targets by inserting new LCBs via
          {!Css_opt.Cts_guide} before falling back to reconnection
          (the paper's "guide clock tree synthesis" extension;
          default false) *)
  validate : bool;
      (** run {!Css_netlist.Validate.run} at {!open_} (default true);
          raises {!Css_netlist.Validate.Invalid} on fatal degeneracy *)
  repair : bool;
      (** let ingress validation repair what it safely can
          (default true); with [false] repairable findings are fatal *)
  rollback : bool;
      (** checkpoint after every phase and restore the best-scoring
          state if the run ends worse (default true). Checkpoints and
          the sign-off are {!score}s of the live timer, bitwise a fresh
          evaluation: see [Css_oracle.Oracles.check_scorer_identity]
          and [pipeline]. After a rollback the sign-off scores the
          restored design; which checkpoint is best is decided on the
          stored reports, so a resumed run decides as the interrupted
          one did. *)
  final_eval : bool;
      (** score the final state with the contest evaluator (default
          true — the paper-scoring contract): {!score}, physical
          latencies only, with the constraint audit. [false] reads the
          live timer's schedule as it stands instead (scheduled
          latencies count; an ECO answer, not a from-scratch run), but
          rollback scoring is disabled with it ([rolled_back] is always
          false) and constraint auditing is skipped. Services answering
          delta requests set [false]; final sign-off keeps [true]. *)
  on_phase_end : (round:int -> phase:string -> Css_netlist.Design.t -> unit) option;
      (** test/fault-injection hook called after each phase completes,
          before the phase is scored for checkpointing; the session
          resyncs the timer afterwards, so the hook may mutate placement
          and latencies freely (default [None]) *)
  obs : Css_util.Obs.t;
      (** observability sink threaded through the timer, the extraction
          engines, the scheduler and the OPT passes. The session itself
          contributes ["<phase>-css"] / ["<phase>-opt"] spans, one
          ["flow.point"] snapshot per trajectory sample, the
          [opt.reconnect.*] / [opt.cell_move.*] counters, and the
          [flow.checkpoints] / [flow.rollbacks] counters.
          The spans and snapshots land on [obs]'s timeline, beside
          the budget governor's ["budget.wall_s"] / ["budget.rss_bytes"]
          counter lanes. The session never exports it: that is the
          context's owner's job ({!Css_util.Obs.write_chrome_json}).
          Default {!Css_util.Obs.null} (zero overhead). *)
  jobs : int;
      (** accepted and ignored (default 1). Extraction runs on the
          calling domain; the worker pool this once sized is gone (see
          [docs/PERFORMANCE.md]), and the field stays so existing
          callers keep compiling. *)
  budget : Css_util.Budget.limits;
      (** wall-clock / RSS budget driving the degradation ladder and the
          hard stop (default {!Css_util.Budget.no_limits} = no budget,
          zero polling overhead) *)
  cache_bytes : int;
      (** accepted and ignored (default 0). The cone macromodel cache
          it once sized is gone (see [docs/PERFORMANCE.md]); the field
          stays so existing callers keep compiling. *)
  checkpoint_dir : string option;
      (** keep a durable {!Persist} checkpoint here: a base written at
          {!open_}, then one journal record at every run start and
          after every completed phase; {!reopen} continues from it
          (default [None] = no persistence) *)
  debug_interrupt_after_phase : int option;
      (** fault injection: raise the interrupt flag once this many
          phases completed — a clean phase-boundary kill (default
          [None]; tests only) *)
  debug_interrupt_after_iteration : int option;
      (** fault injection: raise the interrupt flag after this many
          scheduler [should_stop] polls — a mid-phase kill (default
          [None]; tests only) *)
}

val default_config : config

(** [clone design] deep-copies a design through its textual form, every
    float bitwise, and copies the movement anchors over, so the copy
    judges displacement as [design] does. *)
val clone : Css_netlist.Design.t -> Css_netlist.Design.t

(** {1 Lifecycle} *)

(** [open_ ?config ~algo design] validates (per [config]), builds the
    timer, takes the start checkpoint — and runs no
    phases: the session holds the design at its input state, ready to
    {!step} or {!apply_delta}. The session owns [design] (mutating it
    through scheduling) until {!close}.
    @raise Css_netlist.Validate.Invalid if [config.validate] and the
    design is fatally degenerate (after repair, when enabled). *)
val open_ : ?config:config -> algo:algo -> Css_netlist.Design.t -> t

(** [step t] advances the run by one phase. [`Phase label] says a phase
    boundary was crossed (label ["round-<n>-early"/"-late"] or ["hold"];
    the phase may have been vetoed by a watchdog, in which case the next
    call returns [`Done]); [`Done] says the run is complete and
    {!finish} will not schedule further. Stepping to [`Done] is bitwise
    the historical uninterrupted flow loop. *)
val step : t -> [ `Phase of string | `Done ]

(** [finish t] drains the remaining phases and folds the run into a
    {!result} (evaluator-scored and rollback-checked when configured).
    The session stays open: a later {!apply_delta} starts the next run
    from the finished state. *)
val finish : t -> result

(** [close t] marks the session closed.
    Idempotent and safe on any exit path (including from a signal
    handler's cleanup); every other operation on a closed session
    raises [Invalid_argument]. *)
val close : t -> unit

val is_closed : t -> bool

(** {1 Accessors} *)

(** The live design. Owned by the session: treat as read-only and
    {!clone} before mutating outside {!apply_delta}. *)
val design : t -> Css_netlist.Design.t

(** The live timer, current with {!design}: what every phase schedules
    on and every {!score} reads. Owned by the session: query it, never
    update it. *)
val timer : t -> Css_sta.Timer.t

(** [score t] is the contest report of the design as it stands,
    {!Css_eval.Evaluator.score} of the live timer: what checkpoints and
    the sign-off read, bitwise [Css_eval.Evaluator.evaluate] of a copy.
    Scheduled latencies are masked while it reads and put back, so the
    design and the timer are as they were. *)
val score : t -> Css_eval.Evaluator.report

(** The session's current configuration. [Apply_sdc] deltas can change
    the [timer] sub-config; everything else is as given to {!open_} (or
    as the checkpoint holds it, after {!reopen}). *)
val config : t -> config

val algo : t -> algo

(** The counters of the deleted cone macromodel cache. Nothing produces
    this record any more; it stays so existing callers keep compiling. *)
type cache_stats = {
  cache_hits : int;
  cache_rehash_hits : int;  (** subset of [cache_hits] validated by hash *)
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;  (** currently live models *)
  cache_bytes_used : int;
}

(** [cache_stats t] is always [None], whatever [cache_bytes] says. *)
val cache_stats : t -> cache_stats option

(** {1 Delta requests (incremental ECO)} *)

type delta =
  | Move_cell of { cell : string; x : float; y : float }
      (** placement ECO: move one cell (by name) to an absolute position *)
  | Set_latency of { ff : string; latency : float }
      (** override one flip-flop's scheduled latency *)
  | Set_bounds of { ff : string; lo : float; hi : float }
      (** tighten one flip-flop's Eq. (5) latency window *)
  | Apply_sdc of string
      (** SDC-lite constraint text: latency windows apply per
          flip-flop; uncertainty/derate knobs fold into the timer
          configuration (forcing the from-scratch fallback) *)
  | Replace_design of string
      (** small netlist ECO: a full design text replacing the session's
          design, run through {!Css_netlist.Validate} per the session
          config *)

type delta_mode =
  [ `Incremental  (** only the affected cones were re-propagated *)
  | `Rebuild  (** from-scratch fallback: fresh timer and vertex registry *)
  ]

type delta_outcome = {
  d_result : result;  (** the re-schedule on the post-delta design *)
  d_mode : delta_mode;
  d_touched : int;  (** cells/windows the batch edited *)
  d_seconds : float;  (** wall-clock for the whole request *)
  d_diags : Css_util.Diag.t list;  (** non-fatal findings (SDC/ECO warnings) *)
}

(** [apply_delta t deltas] applies the batch atomically — every delta is
    resolved and validated first ([Error] diagnostics with [ECO-*],
    [SDC-*], [IO-*] or [VAL-*] codes leave the design untouched) — then
    re-propagates ([`Incremental]: only the cones the edits reach;
    [`Rebuild]: from scratch, when the batch replaced the netlist,
    changed the timer configuration, or touched more than a quarter of
    all cells) and re-schedules to completion.

    The resulting latencies are bitwise those of a fresh [Flow.run] on
    the post-delta design with the session's configuration. Small deltas
    skip whole-design re-validation (the design was validated at
    {!open_} and name/value checks cover the edit itself);
    [Replace_design] always revalidates per the session config. *)
val apply_delta :
  t -> delta list -> (delta_outcome, Css_util.Diag.t list) Stdlib.result

(** What a staged delta batch did to a design. *)
type staged = {
  sg_design : Css_netlist.Design.t;  (** the post-delta design *)
  sg_moved : Css_netlist.Design.cell_id list;  (** cells moved (deduped, sorted) *)
  sg_relat : Css_netlist.Design.cell_id list;  (** FFs with edited latencies *)
  sg_touched : int;  (** total edits (= num_cells after a replace) *)
  sg_replaced : bool;  (** a [Replace_design] took effect *)
  sg_timer : Css_sta.Timer.config;  (** timer config after SDC folding *)
  sg_diags : Css_util.Diag.t list;  (** non-fatal findings *)
}

(** [stage ?validate ?repair ~timer design deltas] is the pure delta
    application {!apply_delta} uses, exposed so oracles can mirror a
    session's edits onto a clone and compare against a from-scratch run:
    resolves every delta against [design] (two-phase: a rejected batch
    mutates nothing), applies the edits, and reports what changed plus
    the folded timer configuration. Does not touch any timer. *)
val stage :
  ?validate:bool ->
  ?repair:bool ->
  timer:Css_sta.Timer.config ->
  Css_netlist.Design.t ->
  delta list ->
  (staged, Css_util.Diag.t list) Stdlib.result

(** {1 Persistence}

    Sessions are crash-safe through the same {!Persist} checkpoints the
    one-shot flow uses: {!save} captures the full resumable state at the
    current phase boundary, and {!reopen} rebuilds a session that
    continues bitwise — a killed daemon resumes its sessions exactly
    where their last completed phase left them. *)

(** [save t ~dir] makes the state at the current boundary durable under
    [dir]: into the session's own [checkpoint_dir] it appends one
    journal record (or compacts, as every durable write may); into any
    other directory it writes a full base there.
    @raise Sys_error when the directory cannot be created or written. *)
val save : t -> dir:string -> unit

(** [reopen ?config ~library ~dir ()] loads the checkpoint under [dir]
    ({!Persist.load}, whose design the session adopts) into a fresh
    session positioned mid-run: {!finish} continues to the bitwise
    result of the uninterrupted run, and the session then keeps serving
    deltas. The checkpoint's {!Persist.settings} replace [config]'s, so
    [config] supplies only [obs], [checkpoint_dir], [on_phase_end], the
    debug interrupts, [validate], [repair], [jobs] and [cache_bytes].
    Errors carry {!Persist}'s [CKPT-*] codes; [CKPT-006] also reports a
    checkpoint whose shape does not fit the design it carries (anchor
    count, best-checkpoint FFs, LCBs, masters and array lengths,
    unknown engine slots), so one bad file never raises out of a
    daemon's restore loop. *)
val reopen :
  ?config:config ->
  library:Css_liberty.Library.t ->
  dir:string ->
  unit ->
  (t, Css_util.Diag.t list) Stdlib.result
