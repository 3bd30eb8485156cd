(** Half-perimeter wire length, the contest's wiring-cost metric.

    The paper's Table I reports the HPWL increase caused by LCB-FF
    reconnection and cell movement; this module is the single source of
    truth for that number. *)

(** [of_points ps] is the HPWL of one net's pin locations (0 for fewer
    than two pins). *)
val of_points : Point.t list -> float

(** [increase_pct ~before ~after] is the percentage increase of [after]
    over [before] ([0.] when [before = 0.]). *)
val increase_pct : before:float -> after:float -> float
