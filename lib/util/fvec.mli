(** Growable vector of unboxed [float]s.

    The storage is a monomorphic [float array], which OCaml lays out as a
    flat array of doubles: unlike a polymorphic ['a Vec.t] specialized at
    [float] (whose generic reads box every element they return), [get]
    returns an unboxed double and [set] is a plain store. Used for the
    float columns of the design database — positions, scheduled
    latencies — so the timer's inner loops never allocate when reading
    them (see [docs/PERFORMANCE.md]). *)

type t

(** [create ?capacity ()] is an empty vector. O(1). *)
val create : ?capacity:int -> unit -> t

(** [make n x] is a vector of length [n] filled with [x]. O(n). *)
val make : int -> float -> t

(** [get v i] / [set v i x] are bounds-checked element access. O(1).
    @raise Invalid_argument when [i] is out of bounds. *)
val get : t -> int -> float

val set : t -> int -> float -> unit

(** [unsafe_get v i] / [unsafe_set v i x] skip the bounds check — for
    inner loops whose index range was validated outside the loop. O(1). *)
val unsafe_get : t -> int -> float

val unsafe_set : t -> int -> float -> unit

(** [push v x] appends and returns the new element's index. Amortized
    O(1), doubling growth. *)
val push : t -> float -> int

val to_array : t -> float array
