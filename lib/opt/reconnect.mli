(** LCB-FF reconnection (Section IV-A).

    Clock skew scheduling produces a target latency [l*] per flip-flop;
    this pass realizes it physically by re-connecting the FF's clock pin
    to an LCB whose branch Elmore delay approximates the target
    (Eq. 15-16). FFs are processed in descending [l*]; candidate LCBs
    are ranked by distance to the Elmore-converted target distance, and
    the chosen candidate minimizes [|achieved - target|] plus a wirelength
    penalty; the 12 candidates nearest the target radius are costed.
    Two kinds of LCBs are never used: those at
    {!Css_netlist.Design.lcb_fanout_limit}, and those that have already
    adopted 8 reconnected FFs in this pass (the paper's guard against
    uncontrollable clock-network topology changes).
    Targets at or below {!Css_netlist.Design.min_realized_target} keep
    their current LCB.

    Each call builds one flat table of the design's LCBs (position,
    insertion delay, drive resistance, output net, adoptions this pass
    and the output net's bounding box), and each FF makes one
    allocation-free pass over it: eligibility and the Eq. 16 rank key
    are computed inline, and a bounded sorted array keeps the 12 best
    by [(score, LCB id)] — the order of [compare] on the pairs, so equal
    scores go to the lower id. The kept candidates are costed once each
    in that order and the first strict minimum wins. When an FF moves,
    its new LCB's box grows by the FF's position and its old LCB's box
    is recomputed from the net, so every cost reads the live clock
    nets. *)

type stats = {
  mutable attempted : int;
  mutable reconnected : int;
  mutable residual_error : float;  (** sum over FFs of [|achieved - target|] *)
}

(** [realize timer ~targets] reconnects flip-flops so physical
    latency approaches [current physical + targets]; [targets] maps FF
    instance ids to desired *additional* latency (e.g. the scheduler's
    [l*]). Scheduled (virtual) latencies of processed FFs are cleared —
    realized physically or left as residual slack error. The timer is
    incrementally re-propagated. *)
val realize :
  Css_sta.Timer.t ->
  targets:(Css_netlist.Design.cell_id * float) list ->
  stats
