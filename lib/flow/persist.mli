(** Durable, crash-safe flow checkpoints, and the cooperative interrupt
    flag that triggers them.

    {2 File format}

    One checkpoint lives at [<dir>/checkpoint.ckpt] (see {!path}): a
    versioned header, an FNV-1a 64 content hash ({!Css_util.Fnv}), then
    a line-oriented body carrying the complete resumable flow state —
    the run's {!progress}, the serialized design (via
    {!Css_netlist.Io}'s shortest-round-trip floats, so reloading
    perturbs no bit), the movement anchors, and one
    {!Css_seqgraph.Extract.snapshot} per live extraction engine. The
    format is documented in [docs/ROBUSTNESS.md].

    {2 Crash safety}

    {!save} writes to a temporary file, fsyncs, then renames over the
    final name — a crash at any instant leaves either the previous
    complete checkpoint or the new complete one, never a torn file.
    {!load} rejects damaged files with stable [CKPT-*]
    {!Css_util.Diag.t} codes:

    - [CKPT-001] — file unreadable / missing
    - [CKPT-002] — bad magic or unsupported version
    - [CKPT-003] — content hash mismatch (bit rot, partial overwrite)
    - [CKPT-004] — truncated (short read mid-structure)
    - [CKPT-005] — malformed section or field
    - [CKPT-006] — checkpoint/build mismatch, emitted by
      {!Session.reopen} (and so {!Flow.resume}) when the checkpoint
      names an unknown algorithm or engine slot, its design does not
      parse, or its arrays do not fit the design it carries *)

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
    flushes every live session's checkpoint and the tracer ring, instead
    of each run racing to install its own. OCaml runs [Signal_handle]
    callbacks at safepoints of the main execution (not as C async
    handlers), so [on_signal] may allocate and write files — but it
    preempts arbitrary main-thread code, so it must only touch state
    that stays consistent at every safepoint (atomic flags, idempotent
    cleanup like {!Css_util.Pool.shutdown}, atomic checkpoint writes). *)
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
  ck_positions : Css_geometry.Point.t array;  (** position per cell id *)
  ck_masters : string array;  (** master name per cell id *)
  ck_report : Css_eval.Evaluator.report;
}

(** The per-run values a checkpoint carries. A session resets them
    (with {!fresh_progress}) at the start of every run and delta
    request; everything that belongs to the session rather than to one
    run (degradation rung, pool) lives outside. *)
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

(** Everything needed to continue a flow run from a completed-phase
    boundary. Partial phases are never represented: the flow persists
    only after a phase fully completes, and a resumed run re-executes
    any phase that was in flight when the process died — determinism
    makes the redo bitwise-identical. *)
type state = {
  ps_algo : string;  (** {!Session.algo_name} of the running algorithm *)
  ps_design : string;  (** design name, for mismatch detection *)
  ps_rounds : int;  (** configured round count at save time *)
  ps_progress : progress;  (** the run's progress; file order is chronological *)
  ps_anchors : Css_geometry.Point.t array;
      (** max-displacement anchor per cell id ([Design.cell_orig_pos] of
          the interrupted run): a reparsed design re-anchors at its
          parsed positions, so the legality reference must travel *)
  ps_rung : int;  (** degradation-ladder position *)
  ps_design_text : string;  (** the current design, serialized *)
  ps_engines : (string * Css_seqgraph.Extract.snapshot) list;
      (** live engine snapshots keyed by {!Session}'s engine slot names
          (["ours-early"], ["ours-late"], ["iccss-early"],
          ["iccss-late"]) *)
}

(** [path ~dir] is [<dir>/checkpoint.ckpt]. *)
val path : dir:string -> string

(** [save ?memo ~dir st] atomically replaces the checkpoint (tmp +
    fsync + rename), creating [dir] if missing. The anchors and the best
    checkpoint's positions go through [memo] (default: a fresh one),
    whose slots the design text's cell coordinates share when the same
    memo wrote it; the bytes are the same whichever memo is passed.
    @raise Sys_error when the directory cannot be created or written;
    the previous checkpoint is then left as it was and the temporary
    file removed. *)
val save : ?memo:Css_netlist.Io.Memo.t -> dir:string -> state -> unit

(** [load ~dir] reads and verifies the checkpoint. On [Error], the
    single diagnostic carries one of the [CKPT-*] codes above. *)
val load : dir:string -> (state, Css_util.Diag.t list) result
