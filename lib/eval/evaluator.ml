module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Point = Css_geometry.Point
module Graph = Css_sta.Graph
module Cell = Css_liberty.Cell
module Obs = Css_util.Obs
module Histo = Css_util.Histo

type report = {
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  num_early_violations : int;
  num_late_violations : int;
  hpwl : float;
  constraint_errors : string list;
}

let check_constraints design =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  Array.iter
    (fun lcb ->
      let fanout = Design.lcb_fanout design lcb in
      if fanout > Design.lcb_fanout_limit then
        err "LCB %s fanout %d exceeds limit %d" (Design.cell_name design lcb) fanout
          Design.lcb_fanout_limit)
    (Design.lcbs design);
  Design.iter_cells design (fun c ->
      let moved = Point.manhattan (Design.cell_pos design c) (Design.cell_orig_pos design c) in
      if moved > Design.max_displacement +. 1e-9 then
        err "cell %s displaced %.1f DBU, budget %.1f" (Design.cell_name design c) moved
          Design.max_displacement);
  Array.iter
    (fun ff ->
      let lo, hi = Design.latency_bounds design ff in
      let l = Design.clock_latency design ff in
      if l < lo -. 1e-6 || l > hi +. 1e-6 then
        err "flip-flop %s latency %.2f outside its [%.2f, %.2f] window"
          (Design.cell_name design ff) l lo hi)
    (Design.ffs design);
  List.iter (fun e -> err "netlist: %s" e) (Design.check design);
  List.rev !errors

(* {1 Scoring}

   A scorer owns one timer over its design and remembers what that timer
   last saw: per-cell position and master, per-flip-flop clock latency,
   and the netlist's size. Each [score] diffs the design against that
   record and feeds only the differences to the timer's incremental
   update paths; a netlist that grew (CTS inserts LCBs) is rebuilt. Node
   state after an incremental update is a pure function of the design,
   so the report is bitwise the one a fresh build produces. *)

type scorer = {
  s_timer_config : Timer.config;
  s_obs : Obs.t;
  s_design : Design.t;
  mutable s_graph : Graph.t option;  (* a live timer's graph, for the first build only *)
  c_scores : Obs.counter;
  c_rebuilds : Obs.counter;
  h_dirty : Histo.t;
  mutable s_timer : Timer.t option;  (* None before the first score and after a failed one *)
  mutable s_size : int * int * int;  (* cells, nets, pins *)
  mutable s_x : float array;
  mutable s_y : float array;
  mutable s_master : Cell.t array;
  mutable s_latency : float array;  (* per FF ordinal: the latency the timer used *)
}

let scorer ?(timer = Timer.default_config) ?(obs = Obs.null) ?graph design =
  {
    s_timer_config = timer;
    s_obs = obs;
    s_design = design;
    s_graph = graph;
    c_scores = Obs.counter obs "eval.scores";
    c_rebuilds = Obs.counter obs "eval.rebuilds";
    h_dirty = Obs.histogram obs "eval.dirty_cells";
    s_timer = None;
    s_size = (0, 0, 0);
    s_x = [||];
    s_y = [||];
    s_master = [||];
    s_latency = [||];
  }

let size d = (Design.num_cells d, Design.num_nets d, Design.num_pins d)

(* A shared graph serves the first build only: after the netlist grew,
   the scorer builds its own rather than trust one it cannot check. *)
let rebuild s =
  let d = s.s_design in
  let graph = s.s_graph in
  s.s_timer <- None;
  s.s_graph <- None;
  let timer = Timer.build ~config:s.s_timer_config ~obs:s.s_obs ?graph d in
  let n = Design.num_cells d in
  s.s_size <- size d;
  s.s_x <- Array.init n (Design.cell_x d);
  s.s_y <- Array.init n (Design.cell_y d);
  s.s_master <- Array.init n (Design.cell_master d);
  s.s_latency <- Array.map (Design.clock_latency d) (Design.ffs d);
  s.s_timer <- Some timer;
  Obs.incr s.c_rebuilds;
  timer

(* Moved or re-mastered cells go through [update_moved_cells] (after
   their arcs are re-read), flip-flops whose clock latency changed —
   reconnected, LCB moved or resized, scheduled latency edited — through
   [update_latencies]. *)
let refresh s timer =
  let d = s.s_design in
  let moved = ref [] and relat = ref [] in
  for c = Array.length s.s_x - 1 downto 0 do
    let x = Design.cell_x d c and y = Design.cell_y d c and m = Design.cell_master d c in
    let swapped = m != s.s_master.(c) in
    if swapped then begin
      Graph.refresh_cell_arcs (Timer.graph timer) c;
      s.s_master.(c) <- m
    end;
    if swapped || x <> s.s_x.(c) || y <> s.s_y.(c) then begin
      moved := c :: !moved;
      s.s_x.(c) <- x;
      s.s_y.(c) <- y
    end
  done;
  Array.iteri
    (fun i ff ->
      let l = Design.clock_latency d ff in
      if l <> s.s_latency.(i) then begin
        relat := ff :: !relat;
        s.s_latency.(i) <- l
      end)
    (Design.ffs d);
  if !moved <> [] then Timer.update_moved_cells timer !moved;
  if !relat <> [] then Timer.update_latencies timer !relat;
  Histo.observe_int s.h_dirty (List.length !moved + List.length !relat)

let report_of timer design =
  {
    wns_early = Timer.wns timer Timer.Early;
    tns_early = Timer.tns timer Timer.Early;
    wns_late = Timer.wns timer Timer.Late;
    tns_late = Timer.tns timer Timer.Late;
    num_early_violations = List.length (Timer.violated_endpoints timer Timer.Early);
    num_late_violations = List.length (Timer.violated_endpoints timer Timer.Late);
    hpwl = Design.total_hpwl design;
    constraint_errors = check_constraints design;
  }

let score s =
  let d = s.s_design in
  Obs.incr s.c_scores;
  (* Contest semantics (physical clock network only): the virtual
     latencies are stashed while the timer and the constraint audit
     look, and put back even when scoring raises. *)
  let ffs = Design.ffs d in
  let saved = Array.map (Design.scheduled_latency d) ffs in
  Array.iter (fun ff -> Design.set_scheduled_latency d ff 0.0) ffs;
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun i l -> Design.set_scheduled_latency d ffs.(i) l) saved)
    (fun () ->
      let timer =
        match s.s_timer with
        | Some t when s.s_size = size d -> (
          match refresh s t with
          | () -> t
          | exception e ->
            (* a half-applied diff leaves the record and the timer apart *)
            s.s_timer <- None;
            raise e)
        | _ -> rebuild s
      in
      report_of timer d)

let evaluate ?timer design = score (scorer ?timer design)

let summary r =
  Printf.sprintf
    "early WNS %.2f TNS %.2f (#%d) | late WNS %.2f TNS %.2f (#%d) | HPWL %.3e%s" r.wns_early
    r.tns_early r.num_early_violations r.wns_late r.tns_late r.num_late_violations r.hpwl
    (match r.constraint_errors with
    | [] -> " | constraints OK"
    | es -> Printf.sprintf " | %d CONSTRAINT VIOLATIONS" (List.length es))
