(** Low-overhead streaming tracer with Chrome trace_event export.

    Events (span begin/end, instants, counter samples) are fixed-size
    records written into one preallocated ring buffer — three array
    stores and a byte store per event, no allocation, no lock. Record
    from one domain: the exporter renders a single timeline lane.

    Overflow policy: without a spill file the ring wraps and the exact
    number of overwritten events is counted ({!dropped}); with
    [~spill:path] a full ring is serialized to disk in one 20-byte-per-
    event binary chunk and reset, making the trace lossless. The spill
    file is an overflow buffer for the live process (interned name
    strings stay in memory), not a standalone archive — export through
    the same tracer.

    {!write_chrome_json} emits Chrome [trace_event] JSON that Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing
    open directly; schema and recipe in docs/OBSERVABILITY.md.

    Timestamps come from the monotonic {!Wall_clock.now}, relative to
    tracer creation; {!epoch} carries the single wall-clock anchor for
    correlating the trace with the outside world. *)

type t

(** An interned event name. Resolve once at setup time with {!intern}
    and keep the handle: interning takes a lock, recording does not. *)
type name

(** The shared disabled tracer: every operation is an allocation-free
    no-op, so instrumented code pays one branch when tracing is off. *)
val null : t

(** [create ?capacity ?spill ()] makes an enabled tracer with a ring of
    [capacity] events (default 65536 events ≈ 2.5 MB). [?spill] names a
    binary overflow file written in chunks when the ring fills.
    @raise Invalid_argument if [capacity < 2]. *)
val create : ?capacity:int -> ?spill:string -> unit -> t

(** [enabled t] is [false] exactly for {!null}. *)
val enabled : t -> bool

(** [epoch t] is the wall-clock time at tracer creation (seconds since
    the Unix epoch). *)
val epoch : t -> float

(** [intern t s] returns the id for event name [s], registering it on
    first use. Takes the tracer lock — call at setup, not per event.
    On {!null} returns a dummy id. *)
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

(** [recorded t] is the total number of events ever recorded;
    [dropped t] the exact number overwritten before being spilled or
    exported (always 0 when a spill file is configured); [spilled t]
    the number of records written to the spill file so far. *)
val recorded : t -> int

val dropped : t -> int
val spilled : t -> int

(** [spill_path t] is the configured spill file, if any. *)
val spill_path : t -> string option

(** [install_gc_alarm t] registers a [Gc.alarm] emitting a
    ["gc.major"] instant and a ["gc.heap_words"] counter sample at the
    end of every major collection cycle. Idempotent. Remove with
    {!remove_gc_alarm} (also done by {!close}). *)
val install_gc_alarm : t -> unit

val remove_gc_alarm : t -> unit

(** [flush t] spills all in-memory residue to the spill file (if any)
    and flushes the channel. Called from the interrupt/checkpoint path
    so a killed run keeps its buffered events. *)
val flush : t -> unit

(** [close t] removes the GC alarm, flushes, and closes the spill
    channel. Safe on {!null} and idempotent. *)
val close : t -> unit

(** [write_chrome_json t path] writes the whole trace as Chrome
    [trace_event] JSON, atomically (tmp+rename). End events whose
    begin was overwritten in a wrapped ring are suppressed to keep
    nesting sound. @raise Invalid_argument on {!null}. *)
val write_chrome_json : t -> string -> unit
