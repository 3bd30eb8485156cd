(** Axis-aligned rectangles: die area, placement rows, bounding boxes. *)

type t = {
  lx : float;  (** left *)
  ly : float;  (** bottom *)
  hx : float;  (** right *)
  hy : float;  (** top *)
}

(** [make ~lx ~ly ~hx ~hy] normalizes so that [lx <= hx] and [ly <= hy]. *)
val make : lx:float -> ly:float -> hx:float -> hy:float -> t

(** [of_points ps] is the bounding box of a non-empty point list.
    @raise Invalid_argument on an empty list. *)
val of_points : Point.t list -> t

val width : t -> float
val height : t -> float
val area : t -> float

(** [half_perimeter r] is HPWL of the box: [width + height]. *)
val half_perimeter : t -> float

val contains : t -> Point.t -> bool

(** [clamp r p] is the nearest point to [p] inside [r]. *)
val clamp : t -> Point.t -> Point.t

(** [expand r p] grows [r] minimally to contain [p]. *)
val expand : t -> Point.t -> t

val center : t -> Point.t
