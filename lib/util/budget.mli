(** Wall-clock and memory budgets with soft/hard thresholds.

    A budget is armed at flow start ({!create}) and {!poll}ed at
    iteration and phase boundaries. Each resource (wall clock, resident
    set) has two thresholds: [soft_frac] of the limit, where the caller
    should start shedding load (the flow's degradation ladder — see
    [docs/ROBUSTNESS.md]), and the limit itself, where the caller must
    stop with its best result before the kernel or batch scheduler kills
    the process.

    Polling cost is one clock read plus one [/proc/self/status] scan
    ({!Rusage.current_rss_bytes}); on platforms where RSS is not
    measurable the RSS limit is ignored rather than tripping spuriously.

    Observability: every context bumps [budget.polls]; threshold
    crossings bump [budget.soft_trips] / [budget.hard_trips] and emit
    one ["budget"] snapshot each with the level, reason, measured use
    and the limit (schema in [docs/OBSERVABILITY.md]). Every poll
    also samples the ["budget.wall_s"] and ["budget.rss_bytes"] counter
    lanes ({!Obs.lane}) on [obs]'s timeline, rendering resource pressure
    as curves in Perfetto.

    The wall limit is the run's one wall-clock watchdog: nothing else
    stops a flow on elapsed time.

    Clock source: budgets measure elapsed time with the monotonic
    {!Wall_clock.now}, so a wall limit survives NTP steps of the wall
    clock mid-run. *)

type limits = {
  wall_seconds : float option;  (** total run budget; [None] = unlimited *)
  rss_bytes : int option;  (** current-RSS ceiling; [None] = unlimited *)
  soft_frac : float;  (** soft threshold as a fraction of each limit, in (0, 1] *)
}

(** No limits at all, [soft_frac = 0.85] — the base record to override. *)
val no_limits : limits

type t

(** [create ?obs limits] arms the budget; the clock starts now.
    @raise Invalid_argument on a non-positive limit or [soft_frac]
    outside (0, 1]. *)
val create : ?obs:Obs.t -> limits -> t

(** Result of one {!poll}, most urgent resource first.

    - [Under] — below every soft threshold.
    - [Soft reason] — [reason] (["wall"] or ["rss"]) is above its soft
      threshold but under its limit. Returned on {e every} poll while
      the pressure persists, so a poll loop maps [Soft] directly to
      "take one degradation step per poll" until either the pressure
      clears (rss freed) or its ladder bottoms out; the Obs trip is
      recorded only on the first crossing per resource.
    - [Hard reason] — a limit is exhausted. Sticky: every later poll
      returns the same [Hard] without re-measuring. When both resources
      are over, ["wall"] wins (it is the explicit user-set budget). *)
type pressure = Under | Soft of string | Hard of string

val poll : t -> pressure

(** [elapsed_seconds t] is wall time since {!create}. *)
val elapsed_seconds : t -> float

(** [hard t] is [true] once any {!poll} has returned [Hard _]. *)
val hard : t -> bool
