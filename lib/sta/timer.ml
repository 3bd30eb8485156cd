module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Library = Css_liberty.Library
module Wire = Css_liberty.Wire
module Delay_model = Css_liberty.Delay_model
module Heap = Css_util.Heap
module Mark = Css_util.Mark
module Obs = Css_util.Obs

type corner =
  | Early
  | Late

type config = {
  early_derate : float;
  setup_uncertainty : float;
  hold_uncertainty : float;
}

let default_config = { early_derate = 0.88; setup_uncertainty = 0.0; hold_uncertainty = 0.0 }

let fold_sdc config (sdc : Css_netlist.Sdc.t) =
  {
    setup_uncertainty = Float.max config.setup_uncertainty sdc.setup_uncertainty;
    hold_uncertainty = Float.max config.hold_uncertainty sdc.hold_uncertainty;
    early_derate = Option.value ~default:config.early_derate sdc.early_derate;
  }

(* Slew at launch pins (ps), drive resistance of input ports and pin
   cap of output ports (fF). *)
let initial_slew = 10.0
let port_drive_res = 1.0
let port_cap = 2.0

(* Pre-resolved observability counter handles — the hot loops bump these
   without a name lookup; on Obs.null they all alias the dummy cell. *)
type obs_counters = {
  o_full_props : Obs.counter;
  o_incr_updates : Obs.counter;
  o_fwd : Obs.counter;
  o_bwd : Obs.counter;
  o_cone : Obs.counter;
  o_scans : Obs.counter;  (* full endpoint scans: wns, tns, violated_endpoints *)
  o_evals : Obs.counter;  (* arc delay evaluations into the delay column *)
  (* Touched-node count per incremental update: the distribution behind
     the "re-propagate only affected cones" claim. *)
  h_update : Css_util.Histo.t;
}

let resolve_obs_counters obs =
  {
    o_full_props = Obs.counter obs "timer.full_propagations";
    o_incr_updates = Obs.counter obs "timer.incremental_updates";
    o_fwd = Obs.counter obs "timer.forward_visits";
    o_bwd = Obs.counter obs "timer.backward_visits";
    o_cone = Obs.counter obs "timer.cone_nodes";
    o_scans = Obs.counter obs "timer.endpoint_scans";
    o_evals = Obs.counter obs "timer.arc_evals";
    h_update = Obs.histogram obs "timer.update_nodes";
  }

(* All-float scratch record. OCaml lays an all-float record out flat, so
   writing a field is a plain store: the propagation loops accumulate
   their running extrema here instead of in [float ref]s, which would
   allocate one cell per node visit. *)
type fscratch = {
  mutable s_best_max : float;
  mutable s_best_min : float;
  mutable s_best_slew : float;
  mutable s_acc : float;
}

let fscratch () =
  { s_best_max = 0.0; s_best_min = 0.0; s_best_slew = 0.0; s_acc = 0.0 }

(* Cone-walk scratch: an epoch mark, a DP value per node, and a member
   buffer sized for the whole graph, plus the DP's own float scratch. *)
type cone_scratch = {
  cw_visit : Mark.t;
  cw_scratch : float array;
  cw_members : int array;
  mutable cw_count : int;
  cw_fs : fscratch;
}

let cone_scratch n =
  {
    cw_visit = Mark.create n;
    cw_scratch = Array.make n 0.0;
    cw_members = Array.make n 0;
    cw_count = 0;
    cw_fs = fscratch ();
  }

type t = {
  graph : Graph.t;
  design : Design.t;
  cfg : config;
  obs : Obs.t;
  oc : obs_counters;
  load : float array;  (* per node; meaningful for net drivers *)
  at_max : float array;
  at_min : float array;
  slew : float array;
  pred_max : int array;  (* incoming arc realizing at_max, -1 if none *)
  pred_min : int array;
  rat_late : float array;
  rat_early : float array;
  (* The delay column: each arc's max-corner delay, evaluated only by
     [recompute_forward] and read by everything else. *)
  delay : float array;
  slew_moved : Mark.t;  (* nodes whose slew the current sweep changed *)
  mutable latency_only : bool;  (* the current sweep moves no pin, load or master *)
  visit : Mark.t;  (* scratch for incremental worklists *)
  (* The incremental worklist: one intrusive list per topological level
     ([wl_head.(level)] -> node -> [wl_next.(node)] -> ... -> -1) and
     the span of levels that may hold nodes. All heads are -1 between
     updates. *)
  wl_head : int array;
  wl_next : int array;
  mutable wl_lo : int;
  mutable wl_hi : int;
  changed : int array;  (* nodes whose forward state the update changed *)
  mutable n_changed : int;
  cone_scr : cone_scratch;
  (* graph columns cached at build — the propagation loops index these
     directly instead of going through closures (see Graph raw columns) *)
  g_node_pin : int array;
  g_out_start : int array;
  g_out_arcs : int array;
  g_in_start : int array;
  g_in_arcs : int array;
  g_tails : int array;
  g_heads : int array;
  g_kinds : Graph.arc_kind array;  (* aliases the graph's column: stays
                                      fresh across [refresh_cell_arcs] *)
  g_levels : int array;
  g_launch : int array;  (* encoded launchers, -1 = not a source *)
  g_end : int array;  (* encoded endpoints, -1 = not an endpoint *)
  wire_r : float;  (* Wire r_unit, inlined Elmore math *)
  wire_c : float;  (* Wire c_unit *)
  fscr : fscratch;
}

let graph t = t.graph
let design t = t.design
let config t = t.cfg

(* ------------------------------------------------------------------ *)
(* Loads                                                               *)

let sink_cap t pin =
  let c = Design.pin_cell_id t.design pin in
  if c >= 0 then (Design.cell_master t.design c).Cell.input_cap else port_cap

let refresh_load_of_driver t node =
  let d = t.design in
  let pin = Array.unsafe_get t.g_node_pin node in
  let net = Design.pin_net_id d pin in
  if net < 0 then t.load.(node) <- 0.0
  else begin
    let px = Design.pin_x d pin and py = Design.pin_y d pin in
    let fs = t.fscr in
    fs.s_acc <- 0.0;
    for i = 0 to Design.net_fanout d net - 1 do
      let sink = Design.net_sink d net i in
      let len = Float.abs (px -. Design.pin_x d sink) +. Float.abs (py -. Design.pin_y d sink) in
      let wcap = if len <= 0.0 then 0.0 else t.wire_c *. len in
      fs.s_acc <- fs.s_acc +. wcap +. sink_cap t sink
    done;
    t.load.(node) <- fs.s_acc
  end

let refresh_all_loads t =
  let d = t.design in
  for n = 0 to Array.length t.g_node_pin - 1 do
    if Design.pin_is_output d (Array.unsafe_get t.g_node_pin n) then refresh_load_of_driver t n
  done

(* ------------------------------------------------------------------ *)
(* Arc delays                                                          *)

let driver_res t node =
  let c = Design.pin_cell_id t.design (Array.unsafe_get t.g_node_pin node) in
  if c >= 0 then (Design.cell_master t.design c).Cell.drive_res else port_drive_res

(* Evaluates arc [a]'s max-corner delay into its entry of the delay
   column, with the Linear cell model and the Elmore wire formula
   written out and the LUT model inlined from [Delay_model.delay] (all
   produce the same floats as the Delay_model / Wire entry points, which
   box their results when called across module boundaries). The result
   is stored, not returned: a function this size is never inlined, and
   a returned float is boxed. Only [recompute_forward] calls it. *)
let refresh_delay t a =
  Obs.incr t.oc.o_evals;
  match Array.unsafe_get t.g_kinds a with
  | Graph.Cell_arc model -> (
    let u = Array.unsafe_get t.g_tails a and v = Array.unsafe_get t.g_heads a in
    let slew = Array.unsafe_get t.slew u and load = Array.unsafe_get t.load v in
    match model with
    | Delay_model.Linear { intrinsic; resistance; slew_impact } ->
      Array.unsafe_set t.delay a (intrinsic +. (resistance *. load) +. (slew_impact *. slew))
    | Delay_model.Lut _ -> Array.unsafe_set t.delay a (Delay_model.delay model ~slew ~load))
  | Graph.Net_arc ->
    let u = Array.unsafe_get t.g_tails a and v = Array.unsafe_get t.g_heads a in
    let d = t.design in
    let pu = Array.unsafe_get t.g_node_pin u and pv = Array.unsafe_get t.g_node_pin v in
    let len =
      Float.abs (Design.pin_x d pu -. Design.pin_x d pv)
      +. Float.abs (Design.pin_y d pu -. Design.pin_y d pv)
    in
    Array.unsafe_set t.delay a
      (if len <= 0.0 then 0.0
       else (driver_res t u *. t.wire_c *. len) +. (t.wire_r *. t.wire_c *. len *. len /. 2.0))

let arc_delay t corner a =
  let dmax = t.delay.(a) in
  match corner with Late -> dmax | Early -> t.cfg.early_derate *. dmax

(* Slew seen at the head of arc [a] when the tail has slew [slew_u] and
   the arc's max delay is [delay]. For cell arcs Delay_model.output_slew
   recomputes exactly the delay the caller just evaluated, so
   [0.4 *. delay] with the 2.0 floor is the same float without the
   second model evaluation. *)
let[@inline] arc_out_slew t a ~slew_u ~delay =
  match Array.unsafe_get t.g_kinds a with
  | Graph.Cell_arc _ -> Float.max 2.0 (0.4 *. delay)
  | Graph.Net_arc -> slew_u +. (0.3 *. delay)

(* ------------------------------------------------------------------ *)
(* Source arrivals and endpoint required times                         *)

let ff_params t ff = Cell.ff_params (Design.cell_master t.design ff)

let[@inline] launch_latency_ff t ff = Design.clock_latency t.design ff

(* Writes (at_max, at_min) of a source node into (s_best_max, s_best_min)
   of the scratch record — tuple-free for the forward sweep. *)
let source_arrivals_into t node =
  let fs = t.fscr in
  let enc = Array.unsafe_get t.g_launch node in
  if enc land 1 = 1 then begin
    (* port *)
    fs.s_best_max <- 0.0;
    fs.s_best_min <- 0.0
  end
  else begin
    let ff = enc lsr 1 in
    let l = launch_latency_ff t ff in
    let c2q = (ff_params t ff).Cell.clk_to_q in
    fs.s_best_max <- l +. c2q;
    fs.s_best_min <- l +. (t.cfg.early_derate *. c2q)
  end

(* Writes (rat_late, rat_early) of an endpoint into (s_best_min,
   s_best_max) — the backward sweep minimizes late rats and maximizes
   early rats, matching the scratch roles there. *)
let endpoint_rats_into t node =
  let fs = t.fscr in
  let period = Design.clock_period t.design in
  let enc = Array.unsafe_get t.g_end node in
  if enc land 1 = 1 then begin
    fs.s_best_min <- period -. t.cfg.setup_uncertainty;
    fs.s_best_max <- t.cfg.hold_uncertainty
  end
  else begin
    let ff = enc lsr 1 in
    let l = Design.clock_latency t.design ff in
    let p = ff_params t ff in
    fs.s_best_min <- period +. l -. p.Cell.setup -. t.cfg.setup_uncertainty;
    fs.s_best_max <- l +. p.Cell.hold +. t.cfg.hold_uncertainty
  end

(* ------------------------------------------------------------------ *)
(* Node recomputation                                                  *)

(* Whether arc [a] (tail [u]) may have a new delay in this sweep *)
let[@inline] delay_stale t a u =
  (not t.latency_only)
  ||
  match Array.unsafe_get t.g_kinds a with
  | Graph.Cell_arc _ -> Mark.is_marked t.slew_moved u
  | Graph.Net_arc -> false

(* Returns true when the forward state of [n] changed. The relaxation
   runs over the cached in-CSR with extrema in the flat scratch record:
   no closures, refs or boxed floats per node.

   This is the one place an arc delay is evaluated: each in-arc's delay
   is refreshed into the column, then read from it. A latency-only sweep
   moves no pin, load or master, so a net arc keeps its delay and a cell
   arc's changes only with its tail's slew; the tail sits at a lower
   level, so its [slew_moved] mark is final by now. *)
let recompute_forward t n =
  let old_max = Array.unsafe_get t.at_max n
  and old_min = Array.unsafe_get t.at_min n
  and old_slew = Array.unsafe_get t.slew n in
  if Array.unsafe_get t.g_launch n >= 0 then begin
    source_arrivals_into t n;
    Array.unsafe_set t.at_max n t.fscr.s_best_max;
    Array.unsafe_set t.at_min n t.fscr.s_best_min;
    Array.unsafe_set t.slew n initial_slew;
    Array.unsafe_set t.pred_max n (-1);
    Array.unsafe_set t.pred_min n (-1)
  end
  else begin
    let fs = t.fscr in
    fs.s_best_max <- neg_infinity;
    fs.s_best_min <- infinity;
    fs.s_best_slew <- initial_slew;
    let arg_max = ref (-1) and arg_min = ref (-1) in
    let istart = t.g_in_start and iarcs = t.g_in_arcs and tails = t.g_tails in
    let at_max = t.at_max and at_min = t.at_min and slews = t.slew and delay = t.delay in
    let derate = t.cfg.early_derate in
    for i = Array.unsafe_get istart n to Array.unsafe_get istart (n + 1) - 1 do
      let a = Array.unsafe_get iarcs i in
      let u = Array.unsafe_get tails a in
      if delay_stale t a u then refresh_delay t a;
      let dmax = Array.unsafe_get delay a in
      let amu = Array.unsafe_get at_max u in
      let anu = Array.unsafe_get at_min u in
      if amu > neg_infinity then begin
        let cand = amu +. dmax in
        if cand > fs.s_best_max then begin
          fs.s_best_max <- cand;
          arg_max := a;
          fs.s_best_slew <- arc_out_slew t a ~slew_u:(Array.unsafe_get slews u) ~delay:dmax
        end
      end;
      if anu < infinity then begin
        let cand = anu +. (derate *. dmax) in
        if cand < fs.s_best_min then begin
          fs.s_best_min <- cand;
          arg_min := a
        end
      end
    done;
    Array.unsafe_set at_max n fs.s_best_max;
    Array.unsafe_set at_min n fs.s_best_min;
    Array.unsafe_set slews n (if !arg_max >= 0 then fs.s_best_slew else initial_slew);
    Array.unsafe_set t.pred_max n !arg_max;
    Array.unsafe_set t.pred_min n !arg_min
  end;
  Obs.incr t.oc.o_fwd;
  let slew_changed = Array.unsafe_get t.slew n <> old_slew in
  if slew_changed then Mark.mark t.slew_moved n;
  Array.unsafe_get t.at_max n <> old_max || Array.unsafe_get t.at_min n <> old_min || slew_changed

(* Returns true when the backward state of [n] changed. *)
let recompute_backward t n =
  let old_late = Array.unsafe_get t.rat_late n and old_early = Array.unsafe_get t.rat_early n in
  let fs = t.fscr in
  if Array.unsafe_get t.g_end n >= 0 then endpoint_rats_into t n
  else begin
    fs.s_best_min <- infinity;
    fs.s_best_max <- neg_infinity
  end;
  let ostart = t.g_out_start and oarcs = t.g_out_arcs and heads = t.g_heads in
  let rat_late = t.rat_late and rat_early = t.rat_early and delay = t.delay in
  let derate = t.cfg.early_derate in
  for i = Array.unsafe_get ostart n to Array.unsafe_get ostart (n + 1) - 1 do
    let a = Array.unsafe_get oarcs i in
    let v = Array.unsafe_get heads a in
    let rl = Array.unsafe_get rat_late v in
    let re = Array.unsafe_get rat_early v in
    let d = Array.unsafe_get delay a in
    if rl < infinity then begin
      let cand = rl -. d in
      if cand < fs.s_best_min then fs.s_best_min <- cand
    end;
    if re > neg_infinity then begin
      let cand = re -. (derate *. d) in
      if cand > fs.s_best_max then fs.s_best_max <- cand
    end
  done;
  Array.unsafe_set rat_late n fs.s_best_min;
  Array.unsafe_set rat_early n fs.s_best_max;
  Obs.incr t.oc.o_bwd;
  Array.unsafe_get rat_late n <> old_late || Array.unsafe_get rat_early n <> old_early

(* ------------------------------------------------------------------ *)
(* Full propagation                                                    *)

let propagate t =
  t.latency_only <- false;
  refresh_all_loads t;
  let topo = Graph.topo_order t.graph in
  for i = 0 to Array.length topo - 1 do
    ignore (recompute_forward t (Array.unsafe_get topo i))
  done;
  for i = Array.length topo - 1 downto 0 do
    ignore (recompute_backward t (Array.unsafe_get topo i))
  done;
  Obs.incr t.oc.o_full_props

(* ------------------------------------------------------------------ *)
(* Incremental propagation                                             *)

(* Level-bucket worklist sweeps. A node is queued at most once per
   sweep (the [visit] mark) on its level's intrusive list. Arcs run
   strictly up the levels, so a forward sweep drains the levels with a
   cursor running up and only ever queues above it; a backward sweep
   runs the cursor down. Seeds are recomputed unconditionally; a node
   whose state changes queues its fan-out (forward) or fan-in
   (backward). Within a level the order is free: a node's recomputation
   reads only lower (forward) or higher (backward) levels, all final by
   then — so the result equals any level-ordered schedule's. *)

(* Empties the worklist. The heads are normally all -1 already (a sweep
   drains them); clearing the span also recovers from a sweep an
   exception cut short. *)
let wl_clear t =
  if t.wl_hi >= t.wl_lo then Array.fill t.wl_head t.wl_lo (t.wl_hi - t.wl_lo + 1) (-1);
  t.wl_lo <- max_int;
  t.wl_hi <- -1;
  Mark.reset t.visit

let wl_push t n =
  if not (Mark.is_marked t.visit n) then begin
    Mark.mark t.visit n;
    let l = Array.unsafe_get t.g_levels n in
    Array.unsafe_set t.wl_next n (Array.unsafe_get t.wl_head l);
    Array.unsafe_set t.wl_head l n;
    if l < t.wl_lo then t.wl_lo <- l;
    if l > t.wl_hi then t.wl_hi <- l
  end

(* Pops the next node of level [l], or -1 when the level is empty. *)
let wl_pop t l =
  let n = Array.unsafe_get t.wl_head l in
  if n >= 0 then Array.unsafe_set t.wl_head l (Array.unsafe_get t.wl_next n);
  n

(* Drains the worklist upward; every node whose forward state changed is
   appended to [t.changed]. *)
let sweep_forward t =
  let ostart = t.g_out_start and oarcs = t.g_out_arcs and heads = t.g_heads in
  let l = ref t.wl_lo in
  while !l <= t.wl_hi do
    let n = ref (wl_pop t !l) in
    while !n >= 0 do
      if recompute_forward t !n then begin
        Array.unsafe_set t.changed t.n_changed !n;
        t.n_changed <- t.n_changed + 1;
        for i = Array.unsafe_get ostart !n to Array.unsafe_get ostart (!n + 1) - 1 do
          wl_push t (Array.unsafe_get heads (Array.unsafe_get oarcs i))
        done
      end;
      n := wl_pop t !l
    done;
    incr l
  done

(* Drains the worklist downward; returns the number of nodes whose
   backward state changed. *)
let sweep_backward t =
  let istart = t.g_in_start and iarcs = t.g_in_arcs and tails = t.g_tails in
  let count = ref 0 in
  let l = ref t.wl_hi in
  while !l >= t.wl_lo do
    let n = ref (wl_pop t !l) in
    while !n >= 0 do
      if recompute_backward t !n then begin
        incr count;
        for i = Array.unsafe_get istart !n to Array.unsafe_get istart (!n + 1) - 1 do
          wl_push t (Array.unsafe_get tails (Array.unsafe_get iarcs i))
        done
      end;
      n := wl_pop t !l
    done;
    decr l
  done;
  !count

(* One incremental update: [push_fwd] queues the forward seeds,
   [push_bwd] the backward seeds beyond the forward-changed nodes.
   [latency_only] says the update moved no pin, load or master. *)
let update_with t ~latency_only ~push_fwd ~push_bwd =
  Obs.incr t.oc.o_incr_updates;
  t.latency_only <- latency_only;
  Mark.reset t.slew_moved;
  wl_clear t;
  t.n_changed <- 0;
  push_fwd ();
  sweep_forward t;
  (* Required times depend on downstream rats *and* on local slews, so
     every node whose forward state changed must be re-examined too. *)
  wl_clear t;
  for i = 0 to t.n_changed - 1 do
    wl_push t (Array.unsafe_get t.changed i)
  done;
  push_bwd ();
  let bwd_changed = sweep_backward t in
  Css_util.Histo.observe_int t.oc.h_update (t.n_changed + bwd_changed)

let update_after t ~fwd_seeds ~bwd_seeds =
  update_with t ~latency_only:false
    ~push_fwd:(fun () -> List.iter (wl_push t) fwd_seeds)
    ~push_bwd:(fun () -> List.iter (wl_push t) bwd_seeds)

let update_latencies t ffs =
  let g = t.graph in
  (* resolve every seed before the update starts, so a bad FF raises
     with the timer untouched *)
  List.iter (fun ff -> ignore (Graph.ff_q_node g ff)) ffs;
  List.iter (fun ff -> ignore (Graph.ff_d_node g ff)) ffs;
  update_with t ~latency_only:true
    ~push_fwd:(fun () -> List.iter (fun ff -> wl_push t (Graph.ff_q_node g ff)) ffs)
    ~push_bwd:(fun () -> List.iter (fun ff -> wl_push t (Graph.ff_d_node g ff)) ffs)

let update_moved_cells t cells =
  let g = t.graph in
  let d = t.design in
  let fwd = ref [] and bwd = ref [] in
  let add_node lst pin =
    match Graph.node_of_pin g pin with Some n -> lst := n :: !lst | None -> ()
  in
  let touch_net net =
    let drv = Design.net_driver_id d net in
    if drv >= 0 then
      match Graph.node_of_pin g drv with
      | None -> () (* clock net *)
      | Some drv_node ->
        refresh_load_of_driver t drv_node;
        add_node fwd drv;
        add_node bwd drv;
        (* the driving cell's input pins see a new cell-arc delay *)
        let c = Design.pin_cell_id d drv in
        if c >= 0 then
          List.iter
            (fun pn -> add_node bwd (Design.cell_pin d c pn))
            (Design.cell_master d c).Cell.inputs;
        Design.iter_net_sinks d net (fun sink ->
            add_node fwd sink;
            add_node bwd sink)
  in
  let nets = Hashtbl.create 16 in
  let moved_ffs = ref [] in
  List.iter
    (fun c ->
      if Design.is_ff d c then moved_ffs := c :: !moved_ffs
      else if Design.is_lcb d c && Design.lcb_fanout d c > 0 then
        (* the branch to every FF on a moved LCB changes length; an LCB
           driving no net (lenient parsing can leave one) clocks none *)
        moved_ffs := List.rev_append (Design.ffs_of_lcb d c) !moved_ffs;
      let master = Design.cell_master d c in
      List.iter
        (fun pn ->
          let net = Design.pin_net_id d (Design.cell_pin d c pn) in
          if net >= 0 then Hashtbl.replace nets net ())
        (master.Cell.inputs @ master.Cell.outputs))
    cells;
  Hashtbl.iter (fun net () -> touch_net net) nets;
  (* FFs that moved, or whose LCB moved, see a different LCB branch
     length, i.e. latency. *)
  List.iter
    (fun ff ->
      add_node fwd (Design.cell_pin d ff "Q");
      add_node bwd (Design.cell_pin d ff "D"))
    !moved_ffs;
  update_after t ~fwd_seeds:!fwd ~bwd_seeds:!bwd

let resize_cell t c master =
  Design.swap_master t.design c master;
  Graph.refresh_cell_arcs t.graph c;
  (* the same cones as a placement change are affected: incident net
     loads, the cell's own arcs, and everything downstream *)
  update_moved_cells t [ c ]

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let arrival t corner n = match corner with Late -> t.at_max.(n) | Early -> t.at_min.(n)

let required t corner n = match corner with Late -> t.rat_late.(n) | Early -> t.rat_early.(n)

(* inlined so the per-endpoint scans and the scheduler's bound reads
   take the float unboxed *)
let[@inline] slack t corner n =
  match corner with
  | Late ->
    if t.at_max.(n) = neg_infinity || t.rat_late.(n) = infinity then infinity
    else t.rat_late.(n) -. t.at_max.(n)
  | Early ->
    if t.at_min.(n) = infinity || t.rat_early.(n) = neg_infinity then infinity
    else t.at_min.(n) -. t.rat_early.(n)

let slew t n = t.slew.(n)

let endpoint_slack t corner e = slack t corner (Graph.node_of_endpoint t.graph e)

let launch_slack t corner l = slack t corner (Graph.source_of_launcher t.graph l)

let launch_latency t = function
  | Graph.Launch_ff ff -> launch_latency_ff t ff
  | Graph.Launch_port _ -> 0.0

let endpoint_latency t = function
  | Graph.End_ff ff -> Design.clock_latency t.design ff
  | Graph.End_port _ -> 0.0

let edge_slack t corner ~launcher ~endpoint ~delay =
  let period = Design.clock_period t.design in
  let l_u = launch_latency t launcher in
  let c2q =
    match launcher with
    | Graph.Launch_ff ff -> (ff_params t ff).Cell.clk_to_q
    | Graph.Launch_port _ -> 0.0
  in
  let l_v = endpoint_latency t endpoint in
  match corner with
  | Late ->
    let setup =
      match endpoint with
      | Graph.End_ff ff -> (ff_params t ff).Cell.setup
      | Graph.End_port _ -> 0.0
    in
    period +. l_v -. setup -. t.cfg.setup_uncertainty -. (l_u +. c2q +. delay)
  | Early ->
    let hold =
      match endpoint with
      | Graph.End_ff ff -> (ff_params t ff).Cell.hold
      | Graph.End_port _ -> 0.0
    in
    l_u +. (t.cfg.early_derate *. c2q) +. delay -. (l_v +. hold +. t.cfg.hold_uncertainty)

(* wns / tns scan the endpoint array without classifying nodes into
   launcher/endpoint constructors — they run once per scheduler
   iteration over every endpoint. *)
let wns t corner =
  Obs.incr t.oc.o_scans;
  let eps = Graph.endpoints t.graph in
  let fs = t.fscr in
  fs.s_acc <- 0.0;
  for i = 0 to Array.length eps - 1 do
    let s = slack t corner (Array.unsafe_get eps i) in
    if s < fs.s_acc then fs.s_acc <- s
  done;
  fs.s_acc

let tns t corner =
  Obs.incr t.oc.o_scans;
  let eps = Graph.endpoints t.graph in
  let fs = t.fscr in
  fs.s_acc <- 0.0;
  for i = 0 to Array.length eps - 1 do
    let s = slack t corner (Array.unsafe_get eps i) in
    if s < 0.0 then fs.s_acc <- fs.s_acc +. s
  done;
  fs.s_acc

let violations t corner =
  Obs.incr t.oc.o_scans;
  let eps = Graph.endpoints t.graph in
  let k = ref 0 in
  for i = 0 to Array.length eps - 1 do
    if slack t corner (Array.unsafe_get eps i) < 0.0 then incr k
  done;
  !k

let violated_endpoints t corner =
  Obs.incr t.oc.o_scans;
  let vs =
    Array.fold_left
      (fun acc n ->
        let s = slack t corner n in
        if s < 0.0 then (Graph.endpoint_of_node t.graph n, s) :: acc else acc)
      [] (Graph.endpoints t.graph)
  in
  List.sort (fun (_, a) (_, b) -> compare a b) vs

(* ------------------------------------------------------------------ *)
(* Cone enumeration                                                    *)

(* In-place heapsort of [members.(0 .. count-1)] by ascending level —
   the member buffer is reused across walks, so no per-cone array is
   allocated and freed. *)
let sort_members_by_level level members count =
  let key i = Array.unsafe_get level (Array.unsafe_get members i) in
  let swap i j =
    let x = Array.unsafe_get members i in
    Array.unsafe_set members i (Array.unsafe_get members j);
    Array.unsafe_set members j x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && key (l + 1) > key l then l + 1 else l in
      if key c > key i then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (count / 2) - 1 downto 0 do
    sift i count
  done;
  for len = count - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* Collect the cone of [root] (backward when [forward = false]) into the
   scratch member buffer, then run a longest/shortest-path DP restricted
   to the cone in level order, reading arc delays from the column. The
   DP relaxation is an inline CSR loop: the only allocations are the
   result list cells. *)
let cone t corner ~root ~forward =
  let g = t.graph in
  let ctx = t.cone_scr in
  let visit = ctx.cw_visit and scratch = ctx.cw_scratch and members = ctx.cw_members in
  let ostart = t.g_out_start
  and oarcs = t.g_out_arcs
  and istart = t.g_in_start
  and iarcs = t.g_in_arcs
  and tails = t.g_tails
  and heads = t.g_heads
  and delay = t.delay in
  Mark.reset visit;
  ctx.cw_count <- 0;
  let rec collect n =
    if not (Mark.is_marked visit n) then begin
      Mark.mark visit n;
      let k = ctx.cw_count in
      Array.unsafe_set members k n;
      ctx.cw_count <- k + 1;
      if forward then begin
        if not (Graph.is_endpoint g n) then
          for i = Array.unsafe_get ostart n to Array.unsafe_get ostart (n + 1) - 1 do
            collect (Array.unsafe_get heads (Array.unsafe_get oarcs i))
          done
      end
      else if not (Graph.is_source g n) then
        for i = Array.unsafe_get istart n to Array.unsafe_get istart (n + 1) - 1 do
          collect (Array.unsafe_get tails (Array.unsafe_get iarcs i))
        done
    end
  in
  collect root;
  let count = ctx.cw_count in
  sort_members_by_level t.g_levels members count;
  (* Level strictly increases along arcs, so ascending level is a valid
     relaxation order for the forward cone (over in-arcs) and descending
     for the backward cone (over out-arcs). [sgn] folds the max/min
     corner choice into one compare: multiplying by -1.0 is exact. *)
  let worst = match corner with Late -> neg_infinity | Early -> infinity in
  let sgn = match corner with Late -> 1.0 | Early -> -1.0 in
  let derate = match corner with Late -> 1.0 | Early -> t.cfg.early_derate in
  for i = 0 to count - 1 do
    Array.unsafe_set scratch (Array.unsafe_get members i) worst
  done;
  scratch.(root) <- 0.0;
  let results = ref [] in
  let fs = ctx.cw_fs in
  let process n =
    if n <> root then begin
      fs.s_acc <- worst;
      if forward then
        for i = Array.unsafe_get istart n to Array.unsafe_get istart (n + 1) - 1 do
          let a = Array.unsafe_get iarcs i in
          let u = Array.unsafe_get tails a in
          if Mark.is_marked visit u then begin
            let su = Array.unsafe_get scratch u in
            if su <> worst then begin
              let cand = su +. (derate *. Array.unsafe_get delay a) in
              if sgn *. cand > sgn *. fs.s_acc then fs.s_acc <- cand
            end
          end
        done
      else
        for i = Array.unsafe_get ostart n to Array.unsafe_get ostart (n + 1) - 1 do
          let a = Array.unsafe_get oarcs i in
          let v = Array.unsafe_get heads a in
          if Mark.is_marked visit v then begin
            let sv = Array.unsafe_get scratch v in
            if sv <> worst then begin
              let cand = (derate *. Array.unsafe_get delay a) +. sv in
              if sgn *. cand > sgn *. fs.s_acc then fs.s_acc <- cand
            end
          end
        done;
      Array.unsafe_set scratch n fs.s_acc
    end;
    let sn = Array.unsafe_get scratch n in
    if sn <> worst then
      if forward then begin
        if Graph.is_endpoint g n && n <> root then results := (n, sn) :: !results
      end
      else if Graph.is_source g n && n <> root then results := (n, sn) :: !results
  in
  if forward then
    for i = 0 to count - 1 do
      process (Array.unsafe_get members i)
    done
  else
    for i = count - 1 downto 0 do
      process (Array.unsafe_get members i)
    done;
  Obs.add t.oc.o_cone count;
  (!results, count)

let cone_to_endpoint t corner e =
  let root = Graph.node_of_endpoint t.graph e in
  let raw, visited = cone t corner ~root ~forward:false in
  (List.map (fun (n, d) -> (Graph.launcher_of_node t.graph n, d)) raw, visited)

let cone_from_launcher t corner l =
  let root = Graph.source_of_launcher t.graph l in
  let raw, visited = cone t corner ~root ~forward:true in
  (List.map (fun (n, d) -> (Graph.endpoint_of_node t.graph n, d)) raw, visited)

(* ------------------------------------------------------------------ *)
(* Path tracing                                                        *)

let worst_path t corner e =
  let g = t.graph in
  let pred = match corner with Late -> t.pred_max | Early -> t.pred_min in
  let rec walk n acc =
    let acc = Graph.pin_of_node g n :: acc in
    let a = pred.(n) in
    if a < 0 then acc else walk (Graph.arc_from g a) acc
  in
  let n = Graph.node_of_endpoint g e in
  if arrival t corner n = neg_infinity || arrival t corner n = infinity then []
  else walk n []

(* Best-first enumeration of the k most critical paths into an endpoint.
   A queue item is a backward prefix from the endpoint to [node] with
   accumulated suffix delay [acc]; its score [arrival(node) + acc] is the
   exact arrival the best completion of this prefix realizes, so items
   pop in true criticality order and each source pop is a final path. *)
let k_worst_paths t corner e ~k =
  if k <= 0 then []
  else begin
    let g = t.graph in
    let root = Graph.node_of_endpoint g e in
    let arrival_of n = match corner with Late -> t.at_max.(n) | Early -> t.at_min.(n) in
    let unreachable n =
      match corner with Late -> t.at_max.(n) = neg_infinity | Early -> t.at_min.(n) = infinity
    in
    if unreachable root then []
    else begin
      (* pop the largest arrival first for Late, smallest for Early *)
      let cmp (s1, _, _, _) (s2, _, _, _) =
        match corner with Late -> compare s2 s1 | Early -> compare s1 s2
      in
      let heap = Heap.create ~cmp in
      (* (score, node, suffix delay, suffix node list including node) *)
      Heap.push heap (arrival_of root, root, 0.0, [ root ]);
      let results = ref [] in
      let count = ref 0 in
      let slack_of_arrival arr =
        match corner with
        | Late -> t.rat_late.(root) -. arr
        | Early -> arr -. t.rat_early.(root)
      in
      while !count < k && not (Heap.is_empty heap) do
        let _, node, acc, suffix = Heap.pop heap in
        if Graph.is_source g node then begin
          incr count;
          let arr = arrival_of node +. acc in
          results := (slack_of_arrival arr, List.map (Graph.pin_of_node g) suffix) :: !results
        end
        else
          Graph.iter_in g node (fun a u ->
              if not (unreachable u) then begin
                let d = arc_delay t corner a in
                Heap.push heap (arrival_of u +. d +. acc, u, acc +. d, u :: suffix)
              end)
      done;
      List.rev !results
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let build ?(config = default_config) ?(obs = Obs.null) design =
  let graph = Graph.build design in
  let n = Graph.num_nodes graph in
  let sz = max n 1 in
  let out_start, out_arcs = Graph.csr_out graph in
  let in_start, in_arcs = Graph.csr_in graph in
  let wire = Library.wire (Design.library design) in
  let t =
    {
      graph;
      design;
      cfg = config;
      obs;
      oc = resolve_obs_counters obs;
      load = Array.make sz 0.0;
      at_max = Array.make sz neg_infinity;
      at_min = Array.make sz infinity;
      slew = Array.make sz initial_slew;
      pred_max = Array.make sz (-1);
      pred_min = Array.make sz (-1);
      rat_late = Array.make sz infinity;
      rat_early = Array.make sz neg_infinity;
      delay = Array.make (Graph.num_arcs graph) 0.0;
      slew_moved = Mark.create sz;
      latency_only = false;
      visit = Mark.create sz;
      wl_head = Array.make (Array.fold_left max 0 (Graph.levels graph) + 1) (-1);
      wl_next = Array.make sz (-1);
      wl_lo = max_int;
      wl_hi = -1;
      changed = Array.make sz 0;
      n_changed = 0;
      cone_scr = cone_scratch sz;
      g_node_pin = Graph.node_pins graph;
      g_out_start = out_start;
      g_out_arcs = out_arcs;
      g_in_start = in_start;
      g_in_arcs = in_arcs;
      g_tails = Graph.arc_tails graph;
      g_heads = Graph.arc_heads graph;
      g_kinds = Graph.arc_kinds graph;
      g_levels = Graph.levels graph;
      g_launch = Graph.launcher_codes graph;
      g_end = Graph.endpoint_codes graph;
      wire_r = wire.Wire.r_unit;
      wire_c = wire.Wire.c_unit;
      fscr = fscratch ();
    }
  in
  propagate t;
  t
