(** Process and system memory accounting, for bench artifacts and
    resource budgets.

    Every reader is best-effort: on Linux it parses procfs; elsewhere it
    returns 0, which downstream consumers treat as "not measured". *)

(** [peak_rss_bytes ()] is the process's peak resident-set size
    (high-water mark) in bytes, or 0 when the platform does not expose
    it. O(lines of /proc/self/status) per call; intended for
    once-per-run sampling, not inner loops. *)
val peak_rss_bytes : unit -> int

(** [current_rss_bytes ()] is the process's current resident-set size in
    bytes (the figure the OOM killer acts on), or 0 when unavailable.
    Same cost as {!peak_rss_bytes}; {!Budget} polls it at iteration and
    phase boundaries only. *)
val current_rss_bytes : unit -> int

(** [available_bytes ()] is the kernel's estimate of memory available to
    new allocations without swapping ([MemAvailable] in
    [/proc/meminfo]), or 0 when unavailable — the probe
    [bench/run.sh --paper] uses to pick a profile that fits the machine
    instead of OOM-killing the runner. *)
val available_bytes : unit -> int

(** [gc_allocated_words ()] is the total words this process ever
    allocated (minor plus direct-to-major, promotions excluded).
    Monotone; the difference across a phase or iteration is its
    allocation cost, the figure the per-phase GC telemetry reports. *)
val gc_allocated_words : unit -> float
