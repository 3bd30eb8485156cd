(** Growable vector of unboxed [int]s.

    A monomorphic sibling of {!Vec}: the storage is a plain [int array],
    so reads and writes are single machine-word loads/stores with no
    write barrier, no tag dispatch and no allocation — the building block
    of the struct-of-arrays columns in the design database and the
    sequential graph (see [docs/PERFORMANCE.md]).

    All indices are dense, 0-based and stable: elements are only ever
    appended (or swap-removed by the caller via {!pop} + {!set}). *)

type t

(** [create ?capacity ()] is an empty vector. O(1). *)
val create : ?capacity:int -> unit -> t

val length : t -> int

(** [get v i] / [set v i x] are bounds-checked element access. O(1).
    @raise Invalid_argument when [i] is out of bounds. *)
val get : t -> int -> int

val set : t -> int -> int -> unit

(** [unsafe_get v i] skips the bounds check — for inner loops whose
    index range was validated outside the loop. O(1). *)
val unsafe_get : t -> int -> int

(** [push v x] appends and returns the new element's index. Amortized
    O(1), doubling growth. *)
val push : t -> int -> int

(** [pop v] removes and returns the last element. O(1).
    @raise Invalid_argument on an empty vector. *)
val pop : t -> int

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val to_array : t -> int array
val of_list : int list -> t

(** [find_index p v] is the first index satisfying [p], or [-1]. O(n). *)
val find_index : (int -> bool) -> t -> int
