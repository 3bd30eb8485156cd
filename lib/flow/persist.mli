(** Durable, crash-safe flow checkpoints, and the cooperative interrupt
    flag that triggers them.

    {2 Files}

    A checkpoint directory holds a {e base} and a {e journal}:

    - [<dir>/checkpoint.ckpt] (see {!path}), the base: a versioned
      header, an FNV-1a 64 content hash ({!Css_util.Fnv}), then a
      line-oriented body carrying the complete resumable flow state —
      the {!settings}, the run's {!progress}, the serialized design (via
      {!Css_netlist.Io}'s shortest-round-trip floats, so reloading
      perturbs no bit), the movement anchors, and one
      {!Css_seqgraph.Extract.snapshot} per live extraction engine;
    - [<dir>/checkpoint.journal] (see {!journal_path}): a header naming
      the base by its hash, then one record per durable write since the
      base, each a length, an FNV-1a 64 hash and a body holding the
      {!settings} and what changed: the run's scalar fields and new
      trace points, the cells,
      nets, latencies, bounds and anchors the design's change set lists
      ({!Css_netlist.Design.take_changes}, as
      {!Css_netlist.Io.edit}s of the base's design text, each with its
      current value), the live engine snapshots, and the best checkpoint
      when it changed (its positions only where they differ from the
      movement anchors).

    {!load} parses the base's design once and replays the records onto
    it. Both formats (version 4; older files get [CKPT-002]) are
    documented in [docs/ROBUSTNESS.md].

    {2 Crash safety}

    A base is written to a temporary file, fsynced, then renamed over
    the final name, and a fresh journal naming it follows the same way;
    a crash between the two renames leaves a journal naming the old
    base, which is never replayed. A record is appended with one write
    and fsynced; a crash mid-append leaves a short last record, which
    {!load} drops with a warning (the state is then that of the previous
    record). {!load} rejects damaged files with stable [CKPT-*]
    {!Css_util.Diag.t} codes:

    - [CKPT-001] — file unreadable / missing
    - [CKPT-002] — bad magic or unsupported version (base or journal)
    - [CKPT-003] — content hash mismatch (bit rot, partial overwrite),
      including a journal record that fails its hash before the tail
    - [CKPT-004] — truncated (short read mid-structure)
    - [CKPT-005] — malformed section or field, or journal edits that do
      not fit the base's design
    - [CKPT-006] — checkpoint/build mismatch: emitted by {!load} when
      the base's design does not parse against the cell library or its
      movement anchors do not count the design's cells, and by
      {!Session.reopen} (and so {!Flow.resume}) when the checkpoint
      names an unknown algorithm or engine slot, or its best checkpoint
      does not fit the design it carries *)

(** {1 Cooperative interruption} *)

(** [interrupted ()] reads the process-global interrupt flag. The flow
    polls it at scheduler-iteration and phase boundaries. *)
val interrupted : unit -> bool

(** [request_interrupt ()] sets the flag (what the signal handlers do;
    also the fault-injection path for tests). Async-signal-safe. *)
val request_interrupt : unit -> unit

(** [clear_interrupt ()] resets the flag — call before starting a run
    that should not inherit a stale interrupt. *)
val clear_interrupt : unit -> unit

(** Previously installed dispositions, for {!uninstall_handlers}. *)
type handlers

(** [install_handlers ?signals ?on_signal ()] routes [signals] (default
    SIGINT and SIGTERM) to {!request_interrupt}, then to [on_signal]
    (passed the OCaml signal number), and returns the previous
    dispositions. Signals a platform rejects are skipped silently.

    This is the explicit form for processes owning several flows at
    once: the [css_serve] daemon installs ONE handler whose [on_signal]
    saves every live session's checkpoint, instead of each run racing
    to install its own. OCaml runs [Signal_handle] callbacks at
    safepoints of the main execution (not as C async handlers), so
    [on_signal] may allocate and write files — but it preempts
    arbitrary main-thread code, so it must only touch state that stays
    consistent at every safepoint (atomic flags, idempotent cleanup,
    atomic checkpoint writes). *)
val install_handlers :
  ?signals:int list -> ?on_signal:(int -> unit) -> unit -> handlers

(** [uninstall_handlers h] restores the dispositions [h] saved. *)
val uninstall_handlers : handlers -> unit

(** [with_signal_handlers f] runs [f] with SIGINT and SIGTERM routed to
    {!request_interrupt} — {!install_handlers} with defaults — restoring
    the previous handlers afterwards (even when [f] raises). On
    platforms without these signals [f] just runs. *)
val with_signal_handlers : (unit -> 'a) -> 'a

(** {1 The run-state record}

    Everything a run can resume from is declared here, once: the
    session holds one {!progress} record for its current run, a
    checkpoint file carries it verbatim, and a reopened session adopts
    the loaded record as its own. *)

(** One sample of the optimization trajectory, for Fig. 8. *)
type trace_point = {
  round : int;
  phase : string;  (** "start", "early-css", "early-opt", "late-css", "late-opt" *)
  iter : int;  (** scheduler iteration within the phase; 0 for OPT points *)
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

(** The rollback checkpoint: a restorable snapshot of everything the OPT
    passes mutate, scored by the independent evaluator. Restore arrays
    are indexed by the dense cell ids the design-text round-trip
    preserves; the evaluator report is stored (not re-derived) so a
    resumed run's final rollback compares the exact floats an
    uninterrupted run would. *)
type checkpoint = {
  label : string;
  ck_ffs : Css_netlist.Design.cell_id array;
  ck_latencies : float array;  (** scheduled, per entry of [ck_ffs] *)
  ck_lcb_of : Css_netlist.Design.cell_id array;  (** -1 when unresolved *)
  ck_x : float array;  (** position per cell id, as the design's columns *)
  ck_y : float array;
  ck_masters : string array;  (** master name per cell id *)
  ck_report : Css_eval.Evaluator.report;
}

(** The per-run values a checkpoint carries. A session resets them
    (with {!fresh_progress}) at the start of every run and delta
    request; everything that belongs to the session rather than to one
    run (the degradation rung) lives outside. *)
type progress = {
  mutable phases_done : int;  (** completed main-loop phases (resume cursor) *)
  mutable hold_done : bool;  (** the final hold touch-up phase completed *)
  mutable iterations : int;  (** scheduler iterations, all phases *)
  mutable edges : int;  (** non-engine (FPM) edge accumulator *)
  mutable cones : int;
  mutable stall_best : float;  (** best live-timer worst slack seen *)
  mutable stall_count : int;  (** phases since it improved *)
  mutable stop : string option;  (** watchdog verdict, once set *)
  hpwl_before : float;  (** HPWL of the design at run start *)
  css_seconds : float;
      (** CSS wall-clock accumulated before the live session's clock
          started (a resumed run's earlier share) *)
  opt_seconds : float;
  mutable degradations_rev : string list;  (** ladder steps, newest first *)
  mutable trace_rev : trace_point list;  (** newest first *)
  mutable best : checkpoint option;  (** best-scoring rollback checkpoint *)
}

(** [fresh_progress ~hpwl_before] is the state of a run that has not
    started a phase yet. *)
val fresh_progress : hpwl_before:float -> progress

(** The {!Session.config} fields that decide what a run computes, timer
    floats bit for bit; the base and every journal record carry them. *)
type settings = {
  rounds : int;
  timer : Css_sta.Timer.config;  (** as the last SDC delta left it *)
  use_resize : bool;
  use_cts : bool;
  rollback : bool;
  final_eval : bool;
  budget : Css_util.Budget.limits;
}

(** Everything needed to continue a flow run from a completed-phase
    boundary: what a live session hands over at every durable write,
    and what {!load} gives back. Partial phases are never represented:
    the flow persists only after a phase fully completes, and a resumed
    run re-executes any phase that was in flight when the process died
    — determinism makes the redo bitwise-identical. *)
type live = {
  lv_algo : string;  (** {!Session.algo_name} of the running algorithm *)
  lv_settings : settings;  (** the session's settings at save time *)
  lv_progress : progress;  (** the run's progress; file order is chronological *)
  lv_rung : int;  (** degradation-ladder position *)
  lv_design : Css_netlist.Design.t;
      (** the design, its movement anchors ({!Css_netlist.Design.cell_orig_pos})
          included: a reparsed design re-anchors at its parsed
          positions, so the interrupted run's legality reference
          travels with it *)
  lv_engines : (string * Css_seqgraph.Extract.snapshot) list;
      (** live engine snapshots keyed by {!Session}'s engine slot names
          (["ours-early"], ["ours-late"], ["iccss-early"],
          ["iccss-late"]) *)
}

(** [path ~dir] is [<dir>/checkpoint.ckpt], the base. *)
val path : dir:string -> string

(** [journal_path ~dir] is [<dir>/checkpoint.journal]. *)
val journal_path : dir:string -> string

(** [save ~dir lv] writes [lv] as a new base with an empty journal,
    creating [dir] if missing.
    @raise Sys_error when the directory cannot be created or written;
    the previous base is then left as it was and the temporary file
    removed. *)
val save : dir:string -> live -> unit

(** [load ~library ~dir] reads and verifies the base and scans the
    journal, then parses the base's design text once against [library]
    ({!Css_netlist.Io.of_string}), sets the base's movement anchors on
    it and replays each record that continues the base onto that design
    and the run state: anchors through
    {!Css_netlist.Design.set_cell_orig_pos}, design lines through
    {!Css_netlist.Io.apply_lines}. The design it returns prints byte for
    byte as the one that was written, with its anchors bit for bit. On
    [Error], the first diagnostic carries one of the [CKPT-*] codes
    above: [CKPT-006] when the design text does not parse (the parser's
    diagnostics follow) or the anchors do not count its cells. *)
val load :
  library:Css_liberty.Library.t -> dir:string -> (live, Css_util.Diag.t list) result

(** {1 Journaled writes} *)

(** A checkpoint directory written through its journal. A write appends
    what the design's change set lists ({!Css_netlist.Design.take_changes},
    which nothing else may take); a base and {!resume_journal} clear it. *)
type journal

(** [journal ~dir] is a handle whose first {!write} is a base. *)
val journal : dir:string -> journal

(** [resume_journal ~dir lv] continues the files {!load} just read under
    [dir], [lv] being the state rebuilt from them: its next {!write}
    appends after the last good record (a dropped torn tail is cut
    off). When the journal cannot be continued (missing, stale, torn
    header) the next write is a base. *)
val resume_journal : dir:string -> live -> journal

(** [write j lv] persists [lv] and says what it wrote, with its size in
    bytes. It appends one record unless the design was replaced or its
    cell, net or pin count changed, or the record would bring the
    journal to the base's size: then it writes a new base and an empty
    journal.
    @raise Sys_error on a failed write; the files then hold the previous
    state (at worst with a torn last record), and the next write is a
    base. *)
val write : journal -> live -> [ `Base | `Record ] * int
