(** Elapsed-time measurement for the flow, budgets and tracing.

    [now] reads [CLOCK_MONOTONIC] through a C stub (allocation-free,
    [@@noalloc]): differences of [now] readings are immune to NTP slews
    and wall-clock steps, so budgets and trace timestamps never jump.
    The absolute value of [now] is meaningless across processes — use
    {!epoch} for the one real-world timestamp a run should record. *)

(** [now ()] is the current monotonic time in seconds. Only differences
    are meaningful. Declared as an unboxed external so cross-module
    callers (the timeline's record path, span timing) pay no float boxing
    even under [-opaque]. *)
external now : unit -> (float[@unboxed])
  = "css_monotonic_seconds_byte" "css_monotonic_seconds_unboxed"
[@@noalloc]

(** [epoch ()] is the current wall-clock time (seconds since the Unix
    epoch), for correlating a run with the outside world. Subject to
    clock steps — never use it to measure durations. *)
val epoch : unit -> float

(** [time f] runs [f ()] and returns its result together with the
    elapsed monotonic time in seconds. *)
val time : (unit -> 'a) -> 'a * float

(** A restartable accumulator: phases of the same kind (e.g. "CSS" and
    "OPT") are timed separately and summed. *)
type t

val create : unit -> t
val start : t -> unit

(** [stop t] adds the elapsed time since the matching [start] to the
    accumulator. @raise Invalid_argument if not started. *)
val stop : t -> unit

(** [elapsed t] is the accumulated seconds over all start/stop spans. *)
val elapsed : t -> float
