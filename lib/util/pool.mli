(** A domain-based parallel work pool (no external dependencies).

    The pool owns [jobs - 1] worker domains (the submitting thread is
    worker 0) and executes indexed batches: {!run}[ t ~n task] applies
    [task ~worker i] to every [i] in [\[0, n)], stealing chunks of
    indices off a shared atomic cursor. The pool is built for the
    sequential-graph extraction engines — embarrassingly parallel
    per-endpoint cone walks whose results are written into per-index
    slots and merged deterministically by the submitter — but is generic
    over any task with the safety contract below.

    {2 Safety contract}

    - [task] must only read state that is not concurrently mutated, and
      only write to locations owned by its index [i] (e.g. slot [i] of a
      result array) or private to its [worker] id (e.g. per-worker
      scratch, per-worker accumulators).
    - A pool is driven from one submitting thread at a time; {!run} and
      {!map} are not reentrant and do not nest.
    - Batch completion synchronizes memory: every write a task made is
      visible to the submitter when {!run} returns.
    - The first exception raised by any task is re-raised by {!run} in
      the submitting thread once the batch has drained; remaining
      indices of the batch are abandoned.

    {2 Observability}

    With an enabled [?obs] context the pool reports into the [pool.*]
    counter namespace ([pool.workers_spawned], [pool.batches],
    [pool.items]). Counters are flushed by the submitting thread only —
    worker domains never touch the {!Obs} context (the per-worker-flush
    rule, see [docs/OBSERVABILITY.md]); this keeps the {!Obs.null} sink
    allocation-free and the enabled sinks race-free.

    When [?obs] carries an attached tracer ({!Obs.attach_tracer}), every
    claimed chunk is bracketed by a ["pool.chunk"] span on the executing
    worker's own track — tracer tracks are single-writer per worker, so
    unlike [Obs] counters this is safe (and allocation-free) from worker
    domains, which read the attached tracer and nothing else of [obs].
    The resulting timeline shows per-worker shard occupancy and
    stragglers. *)

type t

(** [default_jobs ()] is [Domain.recommended_domain_count ()] — the
    runtime's estimate of usable hardware parallelism. *)
val default_jobs : unit -> int

(** [create ?obs ?jobs ()] spawns [jobs - 1] worker domains
    ([jobs] defaults to {!default_jobs}[ ()], and is clamped to at least
    1). With [jobs = 1] no domain is spawned and every batch runs inline
    in the submitting thread — same results, zero parallelism. The
    tracer attached to [obs] should have at least [jobs] tracks so each
    worker gets its own timeline lane (extra workers fold onto track 0
    otherwise); attach it before [create]. *)
val create : ?obs:Obs.t -> ?jobs:int -> unit -> t

(** [jobs t] is the worker count (including the submitting thread). *)
val jobs : t -> int

(** [run t ~n task] evaluates [task ~worker i] once for every
    [i] in [\[0, n)] and returns when all of them completed. [worker] is
    in [\[0, jobs t)]; index 0 is the submitting thread. Scheduling
    (which worker runs which index) is nondeterministic — determinism is
    the caller's job: write results into per-index slots and fold them
    in index order after [run] returns. *)
val run : t -> n:int -> (worker:int -> int -> unit) -> unit

(** [map t ~n f] is {!run} collecting [f ~worker i] into slot [i] of the
    returned array: deterministic output order at any worker count. *)
val map : t -> n:int -> (worker:int -> int -> 'a) -> 'a array

(** [shutdown t] stops and joins the worker domains. Idempotent and
    race-free: an atomic guard elects exactly one joiner, so repeated or
    concurrent calls — e.g. a daemon's signal-initiated cleanup racing
    the owning flow's normal exit path — return immediately without
    taking the pool lock (which the interrupted thread may hold). A pool
    can still {!run} after shutdown (inline, sequentially). Always pair
    [create] with [shutdown] (or use {!with_pool}) — live domains keep
    the process from idling. *)
val shutdown : t -> unit

(** [with_pool ?obs ?jobs f] is [f (create ...)] with a
    guaranteed {!shutdown}, whether [f] returns or raises. *)
val with_pool : ?obs:Obs.t -> ?jobs:int -> (t -> 'a) -> 'a
