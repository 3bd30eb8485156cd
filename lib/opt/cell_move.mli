(** Cell movement to refine early violations (Section IV-B).

    For each hold-violated endpoint, the movable combinational cells along
    the violating path are shifted north/south/east/west by a radius that
    grows in 10 steps from 0.1x to 1.0x of the displacement budget
    ({!Css_netlist.Design.max_displacement}, measured from the cell's
    original position); each trial is followed by a local (incremental)
    timing update. A move is accepted when the endpoint's early slack
    improves by more than 0.05 ps without degrading the design's late
    WNS; per the paper, a cell that yields an improvement is not moved
    again. *)

type stats = {
  mutable endpoints_processed : int;
  mutable endpoints_fixed : int;
  mutable moves_tried : int;
  mutable moves_accepted : int;
}

(** [repair_early timer] runs the pass over all currently
    hold-violated endpoints, mutating placement and the timer. *)
val repair_early : Css_sta.Timer.t -> stats
