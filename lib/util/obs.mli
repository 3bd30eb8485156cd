(** Observability: counters, phase spans, per-iteration snapshots.

    Every layer of the pipeline (timer, extraction engines, scheduler,
    baselines, flow) reports into an [Obs.t] context:

    - {b monotone counters} — cheap named integers bumped on the hot path
      (edges extracted, endpoints walked, timer propagations, two-pass
      sweeps, arborescence builds, ...). The taxonomy is documented in
      [docs/OBSERVABILITY.md].
    - {b hierarchical phase spans} — wall-clock timed open/close pairs
      ("flow" > "round1" > "late-css"), nested by a stack, each recording
      total elapsed seconds and entry count per path.
    - {b per-iteration snapshots} — one labelled record of named fields
      per scheduler iteration (WNS/TNS, edge counts, max increment), the
      feedback signal Fig. 8 plots.

    Three sinks:

    - {!null}: the shared disabled context. All operations on it are
      allocation-free no-ops — counters resolve to one dummy cell, spans
      skip the clock read — so instrumented code pays (almost) nothing
      when observability is off.
    - {!create_trace}: human-readable lines pushed to an [out_channel] as
      spans close and snapshots arrive.
    - {!create}: in-memory collection, dumped as JSON ({!to_json},
      {!write_json}) in the stats-dump schema of docs/OBSERVABILITY.md.

    A trace context also collects, so every live context can be dumped. *)

(** {1 JSON values}

    The JSON tree lives in {!Json} (lib/util/json.ml) so sibling
    modules ([Histo], [Tracer], [Regress]) can use it; this alias keeps
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
    context creation — the run's one correlation anchor. Span timings
    themselves use the monotonic {!Wall_clock.now}. [0.0] on {!null}. *)
val epoch : t -> float

(** [attach_tracer t tracer] mirrors every span open/close and
    snapshot onto [tracer]'s timeline, so existing
    instrumentation renders in Perfetto without further changes. No-op
    on {!null}. *)
val attach_tracer : t -> Tracer.t -> unit

(** [tracer t] is the attached tracer ({!Tracer.null} if none), for
    instrumentation that wants to emit richer timeline events than the
    mirror provides. *)
val tracer : t -> Tracer.t

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
    parent precedes its children. Still-open spans contribute only
    their completed visits. *)
val spans : t -> (string * float * int) list

(** {1 Snapshots} *)

(** [snapshot t ~label fields] records one per-iteration observation.
    [label] names the stream (e.g. ["late-css"]); [fields] are
    name/value pairs (WNS, TNS, edge counts...). The current span path
    and a sequence number are attached. *)
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
