(** Low-overhead streaming tracer with Chrome trace_event export.

    Events (span begin/end, instants, counter samples) are fixed-size
    records (about 25 bytes) appended to one in-memory log — three
    array stores and a byte store per event, no lock. The log starts at
    4096 events and doubles its columns when full (the only time it
    allocates), so every event recorded is kept until export. Record
    from one domain: the exporter renders a single timeline lane.

    {!write_chrome_json} emits Chrome [trace_event] JSON that Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing
    open directly; schema and recipe in docs/OBSERVABILITY.md.

    Timestamps come from the monotonic {!Wall_clock.now}, relative to
    tracer creation; the export's [otherData.epoch_s] carries the single
    wall-clock anchor for correlating the trace with the outside
    world. *)

type t

(** An interned event name. Resolve once at setup time with {!intern}
    and keep the handle: interning hashes the string, recording does
    not. *)
type name

(** The shared disabled tracer: every operation is an allocation-free
    no-op, so instrumented code pays one branch when tracing is off. *)
val null : t

(** [create ()] makes an enabled tracer with an empty log. *)
val create : unit -> t

(** [enabled t] is [false] exactly for {!null}. *)
val enabled : t -> bool

(** [intern t s] returns the id for event name [s], registering it on
    first use. Call at setup, not per event. On {!null} returns a
    dummy id. *)
val intern : t -> string -> name

(** [span_begin t n] / [span_end t n] bracket a timed slice on the
    timeline. Nesting is by position: begins and ends pair up LIFO.
    Allocation-free. *)
val span_begin : t -> name -> unit

val span_end : t -> name -> unit

(** [instant t ?arg n] marks a point event (default [arg] 0). *)
val instant : t -> ?arg:float -> name -> unit

(** [sample t n v] records a counter sample; the exporter renders these
    as Perfetto counter lanes. Allocation-free. *)
val sample : t -> name -> float -> unit

(** [recorded t] is the number of events recorded so far, all of them
    still in the log. *)
val recorded : t -> int

(** [install_gc_alarm t] registers a [Gc.alarm] emitting a
    ["gc.major"] instant and a ["gc.heap_words"] counter sample at the
    end of every major collection cycle. Idempotent. {!close} removes
    it. *)
val install_gc_alarm : t -> unit

(** [close t] removes the GC alarm. Safe on {!null} and idempotent. *)
val close : t -> unit

(** [write_chrome_json t path] writes the whole trace as Chrome
    [trace_event] JSON, atomically (tmp+rename): every event recorded
    so far, in order. @raise Invalid_argument on {!null}. *)
val write_chrome_json : t -> string -> unit
