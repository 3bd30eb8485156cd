(** Perf-regression diffing between two JSON artifacts — the engine
    behind the [css_stats] CLI and the CI perf gate.

    Auto-detects the input shape: a perfbench result line (the last
    line printed by [perfbench/run.py]: [correct], [attempted],
    [failed] and a [metrics] object of [{value, unit}]) or an [Obs]
    stats dump ([--stats-json]/[Obs.write_json] object). Every
    comparable metric becomes a {!row} whose delta is signed in the
    {e worse} direction (positive = regression); rows carrying a
    threshold participate in gating, the rest are informational.

    On perfbench lines the gate fails unless the current line is
    [correct] with [failed = 0] and carries every baseline metric; each
    end-to-end metric stays within its relative [bound] in the
    direction of its [better] field; and no per-layer count or ratio
    (deterministic for a seed; [gc.*] excepted) gets worse at all.
    Directions, units and bounds come from [BENCHMARK.json]. Per-layer
    times, words and [gc.*] rows are informational.

    On stats dumps span totals gate at +10% and histogram p95s at
    +25%; counters are informational.

    The 0-means-not-measured convention is honoured: a zero baseline
    value of a thresholded metric produces an informational row, never
    a spurious percentage. *)

type row = {
  r_key : string;
      (** ["line"], ["end_to_end"], ["per_layer"], ["unlisted"] (not in
          BENCHMARK.json) or ["new"] (not in the baseline) for perfbench
          lines; a span path, ["histo"] or ["counter"] for stats dumps *)
  r_metric : string;  (** e.g. ["run_s"], ["sched.iterations"], ["total_s"] *)
  r_base : float;
  r_cur : float;
  r_delta_pct : float;  (** positive = worse *)
  r_threshold_pct : float option;  (** [None] = informational *)
  r_regressed : bool;
}

type report = {
  rows : row list;
  missing : string list;  (** baseline metrics/spans absent from current *)
}

(** [diff ?benchmark ~baseline ~current ()] compares two artifacts of
    the same shape. [benchmark] is the parsed [BENCHMARK.json]; it is
    required for perfbench lines. @raise Failure when the shapes
    differ, neither shape is recognized, or perfbench lines come
    without [benchmark]. *)
val diff : ?benchmark:Json.t -> baseline:Json.t -> current:Json.t -> unit -> report

(** [regressions r] is the gated rows that exceeded their threshold. *)
val regressions : report -> row list

(** [ok r] is [true] iff nothing regressed and nothing went missing —
    the gate's pass condition. *)
val ok : report -> bool

(** [inflate ~pct j] scales the time/size-like metrics of [j] up by
    [pct] percent: on a perfbench line every metric with unit [s],
    [ms], [MB] or [count]; in a stats dump span [total_s] and
    histogram [p95]. CI diffs a baseline against its own inflated copy
    to prove the gate demonstrably fails on a synthetic regression. *)
val inflate : pct:float -> Json.t -> Json.t

(** [render r] is the human-readable regression table, one row per
    metric plus a trailing [gate: ...] verdict line. *)
val render : report -> string
