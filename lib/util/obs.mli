(** Observability: counters, phase spans, per-iteration snapshots and
    the timeline they are recorded on.

    Every layer of the pipeline (timer, extraction engines, scheduler,
    baselines, flow, budget, daemon) reports into an [Obs.t] context:

    - {b monotone counters} — cheap named integers bumped on the hot path
      (edges extracted, endpoints walked, timer propagations, two-pass
      sweeps, arborescence builds, ...). The taxonomy is documented in
      [docs/OBSERVABILITY.md].
    - {b hierarchical phase spans} — wall-clock timed open/close pairs
      ("flow" > "round1" > "late-css"), nested by a stack; {!spans}
      reports total elapsed seconds and entry count per path.
    - {b per-iteration snapshots} — one labelled record of named fields
      per scheduler iteration (WNS/TNS, edge counts, max increment), the
      feedback signal Fig. 8 plots.
    - {b the timeline} — one append-only in-memory log of fixed-size
      events (about 25 bytes each: kind, name id, monotonic stamp, one
      float argument). A span is recorded once, as its begin/end pair in
      the log; a snapshot adds an instant; counter {!lane}s add samples.
      The log starts at 4096 events and doubles its columns when full
      (the only time it allocates), so nothing recorded is dropped.
      {!write_chrome_json} exports it for Perfetto.

    Three sinks:

    - {!null}: the shared disabled context. All operations on it are
      allocation-free no-ops — counters resolve to one dummy cell, spans
      skip the clock read, samples record nothing — so instrumented code
      pays (almost) nothing when observability is off.
    - {!create_trace}: human-readable lines pushed to an [out_channel] as
      spans close and snapshots arrive.
    - {!create}: in-memory collection, dumped as JSON ({!to_json},
      {!write_json}) in the stats-dump schema of docs/OBSERVABILITY.md.

    Every enabled context ({!create}, {!create_trace}) collects and
    records the timeline, so every live context can be dumped and
    exported. Record from one domain: the exporter renders a single
    timeline lane. *)

(** {1 JSON values}

    The JSON tree lives in {!Json} (lib/util/json.ml) so sibling
    modules ([Histo], [Regress]) can use it; this alias keeps
    the historical [Obs.Json] path working. *)

module Json = Json

(** {1 Contexts} *)

type t

(** [null] is the shared disabled context: no sink, no collection, no
    allocation on the hot path. [counter null _] returns a shared dummy
    cell; [span null _ f] is [f ()] without reading the clock. *)
val null : t

(** [create ()] is an enabled in-memory context (JSON sink). *)
val create : unit -> t

(** [create_trace oc] is an enabled context that additionally prints
    human-readable lines to [oc] as spans close and snapshots arrive. *)
val create_trace : out_channel -> t

(** [enabled t] is [false] exactly for {!null}. *)
val enabled : t -> bool

(** [epoch t] is the wall-clock time (seconds since the Unix epoch) at
    context creation — the run's one correlation anchor, written as
    [clock.epoch_s] by {!to_json} and as [otherData.epoch_s] by
    {!write_chrome_json}. Span timings and timeline stamps use the
    monotonic {!Wall_clock.now}, relative to creation. [0.0] on
    {!null}. *)
val epoch : t -> float

(** {1 Counters} *)

(** A named monotone counter cell. Counters only grow: increments are
    non-negative by construction ({!incr}, and {!add} raises on negative
    deltas), so a counter read is a valid progress measure. *)
type counter

(** [counter t name] finds or creates the counter [name] in [t]. On
    {!null} it returns the shared dummy cell (never registered, never
    reported). Call once at setup time and keep the handle: the lookup
    hashes, the increment does not. *)
val counter : t -> string -> counter

(** [incr c] adds 1. Allocation-free. *)
val incr : counter -> unit

(** [add c n] adds [n >= 0]. Allocation-free.
    @raise Invalid_argument if [n < 0] (counters are monotone). *)
val add : counter -> int -> unit

(** [value c] is the current count. *)
val value : counter -> int

(** [counters t] lists registered [(name, value)] pairs sorted by name;
    [[]] on {!null}. *)
val counters : t -> (string * int) list

(** {1 Histograms} *)

(** [histogram t name] finds or creates the log-bucketed histogram
    [name] in [t]; on {!null} it returns {!Histo.dummy} (never
    reported). Like {!counter}: resolve once at setup, then
    [Histo.observe] is allocation-free on the hot path. *)
val histogram : t -> string -> Histo.t

(** [histograms t] lists registered non-empty [(name, histo)] pairs
    sorted by name; [[]] on {!null}. *)
val histograms : t -> (string * Histo.t) list

(** {1 Spans} *)

(** [span t name f] times [f ()] under the span [name], nested inside
    whatever span is currently open. The elapsed wall-clock is added to
    the span's path total even when [f] raises. On {!null} this is just
    [f ()]. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** [open_span t name] / [close_span t name] are the imperative form for
    spans that cannot wrap a closure (accumulating phase clocks). Spans
    must close in LIFO order; [close_span] checks [name] against the top
    of the stack. @raise Invalid_argument on mismatch or empty stack
    (never on {!null}). *)
val open_span : t -> string -> unit

val close_span : t -> string -> unit

(** [spans t] lists [(path, total_seconds, count)] per distinct span
    path (path components joined with ['/']), sorted by path so a
    parent precedes its children, read out of the timeline's
    begin/end pairs. Still-open spans contribute only their completed
    visits. *)
val spans : t -> (string * float * int) list

(** {1 Snapshots} *)

(** [snapshot t ~label fields] records one per-iteration observation.
    [label] names the stream (e.g. ["late-css"]); [fields] are
    name/value pairs (WNS, TNS, edge counts...). The current span path
    and a sequence number are attached, and the timeline records an
    instant named [label]. *)
val snapshot : t -> label:string -> (string * Json.t) list -> unit

(** [snapshots t] returns recorded snapshots in order as
    [(label, span_path, fields)]. *)
val snapshots : t -> (string * string * (string * Json.t) list) list

(** {1 Dumping} *)

(** [to_json t] is the whole context as
    [{"counters": {...}, "spans": [...], "snapshots": [...],
      "histograms": {...}, "clock": {...}}]. *)
val to_json : t -> Json.t

(** [write_json t path] writes {!to_json} to [path] (pretty-printed one
    top-level key per line), atomically via tmp+rename: an interrupted
    run never leaves a truncated stats file. *)
val write_json : t -> string -> unit

(** {1 Timeline} *)

(** A counter lane: a named series of samples on the timeline, which
    Perfetto renders as a curve. *)
type lane

(** [lane t name] finds or registers [name] on [t]'s timeline. On
    {!null} it returns a shared dummy lane. Like {!counter}: resolve
    once at setup and keep the handle; the lookup hashes, {!sample}
    does not. *)
val lane : t -> string -> lane

(** [sample l v] records the counter sample [v] on [l]. Allocation-free
    (a no-op on {!null}'s lane). *)
val sample : lane -> float -> unit

(** [recorded t] is the number of timeline events recorded so far, all
    of them still in the log; [0] on {!null}. *)
val recorded : t -> int

(** [install_gc_alarm t] registers a [Gc.alarm] recording a
    ["gc.major"] instant and a ["gc.heap_words"] counter sample at the
    end of every major collection cycle. Idempotent; no-op on {!null}. *)
val install_gc_alarm : t -> unit

(** [remove_gc_alarm t] removes the alarm, if any. Idempotent. *)
val remove_gc_alarm : t -> unit

(** [write_chrome_json t path] writes the timeline as Chrome
    [trace_event] JSON (Perfetto and chrome://tracing open it), every
    event recorded so far in order, atomically (tmp+rename). Schema in
    docs/OBSERVABILITY.md. @raise Invalid_argument on {!null}. *)
val write_chrome_json : t -> string -> unit
