(** Log-bucketed histograms for latency and size distributions.

    Fixed layout: 8 sub-buckets per octave (every bucket spans a ratio
    of [2^(1/8)], about 9%), bucket 0 collecting non-positive or NaN
    observations, buckets 1..1024 covering [2^-64, 2^64] with clamping
    at both ends. Quantile estimates are therefore within ~4.5% of the
    true value, while exact [count]/[sum]/[min]/[max] are tracked on
    the side. See docs/OBSERVABILITY.md for the layout rationale.

    {!observe} is allocation-free, so hot loops (per-iteration phase
    timings, cone-walk sizes, MMWC cycle lengths) can observe
    unconditionally; instrumentation that may be disabled routes to the
    shared {!dummy} sink, mirroring [Obs]'s dummy counter. *)

type t

(** Number of buckets in the fixed layout (1025). *)
val n_buckets : int

(** [create ()] is an empty histogram. *)
val create : unit -> t

(** Shared sink for disabled contexts. Observations land here and are
    never reported. *)
val dummy : t

(** [observe t v] records one observation. Allocation-free. Non-finite
    values are counted in their buckets (0 for NaN, the clamp buckets
    for infinities) but excluded from [sum]/[min]/[max]/[mean], which
    cover finite observations only. *)
val observe : t -> float -> unit

(** [observe_int t v] is [observe t (float_of_int v)]. *)
val observe_int : t -> int -> unit

(** [bucket_of v] is the index [v] lands in (exposed for tests). *)
val bucket_of : float -> int

(** [bucket_lo i] is the geometric lower edge of bucket [i >= 1]. *)
val bucket_lo : int -> float

val count : t -> int
val sum : t -> float

(** [min_value]/[max_value] are exact over all observations; [0.0] when
    empty. *)
val min_value : t -> float

val max_value : t -> float
val mean : t -> float

(** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) from the
    bucket counts: the geometric midpoint of the bucket holding the
    [ceil (q*n)]-th smallest observation, clamped into
    [[min_value, max_value]]. [0.0] when empty. *)
val quantile : t -> float -> float

(** [clear t] resets [t] to empty without reallocating. *)
val clear : t -> unit

(** [to_json t] is
    [{"count","sum","min","max","mean","p50","p95","p99","buckets":[[i,c],...]}]
    with only non-empty buckets listed. [of_json] restores a histogram
    that merges and quantiles identically.
    @raise Failure on malformed bucket entries. *)
val to_json : t -> Json.t

val of_json : Json.t -> t
