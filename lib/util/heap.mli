(** Binary min-heap with a user-supplied ordering.

    Used by the timer's k-worst-path enumeration (prefixes popped in
    criticality order). *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (minimum first). *)
val create : cmp:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** [pop h] removes and returns the minimum element.
    @raise Not_found on an empty heap. *)
val pop : 'a t -> 'a

(** [peek h] is the minimum element without removing it.
    @raise Not_found on an empty heap. *)
val peek : 'a t -> 'a

val clear : 'a t -> unit

(** [of_list ~cmp xs] heapifies [xs]. *)
val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t

(** [pop_all h] drains the heap, returning elements in ascending order. *)
val pop_all : 'a t -> 'a list
