(** Gate sizing — the paper's "integrate with logic path optimization"
    extension (Section VI).

    Two greedy passes over violated paths:

    - {e upsizing} for setup: cells on late-critical paths are swapped to
      stronger drive variants when that improves the endpoint's late
      slack without creating new hold violations;
    - {e downsizing} for hold: cells on early-critical paths are swapped
      to weaker variants (more delay on the short path) when that
      improves hold without degrading the design's late WNS.

    Each accepted swap is followed by an incremental timing update, like
    the cell-movement pass. Swaps are restricted to library variants
    with an identical pin interface. *)

type stats = {
  mutable upsized : int;
  mutable downsized : int;
  mutable swaps_tried : int;
  mutable endpoints_processed : int;
}

(** [upsize_late timer] runs the setup pass over all currently
    late-violated endpoints. *)
val upsize_late : Css_sta.Timer.t -> stats

(** [downsize_early timer] runs the hold pass over all currently
    early-violated endpoints. *)
val downsize_early : Css_sta.Timer.t -> stats
