(** 2-D points in database units (DBU). *)

type t = {
  x : float;
  y : float;
}

val make : float -> float -> t
val origin : t

(** [manhattan a b] is the L1 distance, the wire-length metric used by the
    Elmore conversion and the reconnection distance matrix. *)
val manhattan : t -> t -> float

(** [euclidean a b] is the L2 distance (used only for reporting). *)
val euclidean : t -> t -> float

val add : t -> t -> t
val sub : t -> t -> t

(** [scale k p] multiplies both coordinates by [k]. *)
val scale : float -> t -> t

val equal : ?eps:float -> t -> t -> bool
