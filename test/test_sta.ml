(* Tests for the timing graph and the static timing analyser, including
   the incremental-equals-full propagation property the Update step of
   the paper's algorithm relies on. *)

module Design = Css_netlist.Design
module Graph = Css_sta.Graph
module Timer = Css_sta.Timer
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Library = Css_liberty.Library
module Cell = Css_liberty.Cell

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)
let counter obs name = Css_util.Obs.value (Css_util.Obs.counter obs name)

let p = Point.make

(* in -> buf -> ff1.D ; ff1.Q -> inv -> ff2.D ; ff2.Q -> out *)
let two_ff_design () =
  let d =
    Design.create ~name:"twoff" ~library:Library.default
      ~die:(Rect.make ~lx:0. ~ly:0. ~hx:1000. ~hy:1000.)
      ~clock_period:500.0 ()
  in
  let clk = Design.add_port d ~name:"clk" ~dir:Design.In ~pos:(p 0. 0.) in
  Design.set_clock_root d clk;
  let inp = Design.add_port d ~name:"in" ~dir:Design.In ~pos:(p 0. 300.) in
  let out = Design.add_port d ~name:"out" ~dir:Design.Out ~pos:(p 1000. 300.) in
  let lcb = Design.add_cell d ~name:"lcb" ~master:"LCB" ~pos:(p 100. 100.) in
  let ff1 = Design.add_cell d ~name:"ff1" ~master:"DFF" ~pos:(p 200. 200.) in
  let ff2 = Design.add_cell d ~name:"ff2" ~master:"DFF" ~pos:(p 600. 200.) in
  let buf = Design.add_cell d ~name:"buf" ~master:"BUF_X2" ~pos:(p 100. 300.) in
  let inv = Design.add_cell d ~name:"inv" ~master:"INV_X1" ~pos:(p 400. 200.) in
  let pin c n = Design.cell_pin d c n in
  ignore (Design.add_net d ~name:"nclk" ~driver:(Design.port_pin d clk) ~sinks:[ pin lcb "CKI" ]);
  ignore
    (Design.add_net d ~name:"nck" ~driver:(pin lcb "CKO") ~sinks:[ pin ff1 "CK"; pin ff2 "CK" ]);
  ignore (Design.add_net d ~name:"nin" ~driver:(Design.port_pin d inp) ~sinks:[ pin buf "A" ]);
  ignore (Design.add_net d ~name:"nd1" ~driver:(pin buf "Z") ~sinks:[ pin ff1 "D" ]);
  ignore (Design.add_net d ~name:"nq1" ~driver:(pin ff1 "Q") ~sinks:[ pin inv "A" ]);
  ignore (Design.add_net d ~name:"nd2" ~driver:(pin inv "Z") ~sinks:[ pin ff2 "D" ]);
  ignore (Design.add_net d ~name:"nq2" ~driver:(pin ff2 "Q") ~sinks:[ Design.port_pin d out ]);
  (d, ff1, ff2, inv)

(* ------------------------------------------------------------------ *)
(* Graph structure *)

let test_graph_excludes_clock_network () =
  let d, ff1, _, _ = two_ff_design () in
  let g = Graph.build d in
  (* CK pins, LCB pins and the clock root are not data nodes *)
  checkb "ff CK excluded" true (Graph.node_of_pin g (Design.cell_pin d ff1 "CK") = None);
  let lcb = (Design.lcbs d).(0) in
  checkb "LCB CKO excluded" true (Graph.node_of_pin g (Design.cell_pin d lcb "CKO") = None);
  let clk_port = Option.get (Design.clock_root d) in
  checkb "clock root excluded" true (Graph.node_of_pin g (Design.port_pin d clk_port) = None)

let test_graph_sources_endpoints () =
  let d, _, _, _ = two_ff_design () in
  let g = Graph.build d in
  (* sources: in port + 2 FF Q; endpoints: out port + 2 FF D *)
  checki "#sources" 3 (Array.length (Graph.sources g));
  checki "#endpoints" 3 (Array.length (Graph.endpoints g));
  Array.iter (fun n -> checkb "source classified" true (Graph.is_source g n)) (Graph.sources g);
  Array.iter (fun n -> checkb "endpoint classified" true (Graph.is_endpoint g n)) (Graph.endpoints g)

let test_graph_levels_monotone () =
  let d, _, _, _ = two_ff_design () in
  let g = Graph.build d in
  for a = 0 to Graph.num_arcs g - 1 do
    checkb "level increases along arcs" true (Graph.level g (Graph.arc_to g a) > Graph.level g (Graph.arc_from g a))
  done

let test_graph_topo_is_permutation () =
  let d, _, _, _ = two_ff_design () in
  let g = Graph.build d in
  let topo = Graph.topo_order g in
  let seen = Array.make (Graph.num_nodes g) false in
  Array.iter (fun n -> seen.(n) <- true) topo;
  checkb "every node appears" true (Array.for_all Fun.id seen);
  checki "length" (Graph.num_nodes g) (Array.length topo)

let test_graph_ff_nodes () =
  let d, ff1, _, _ = two_ff_design () in
  let g = Graph.build d in
  let qn = Graph.ff_q_node g ff1 and dn = Graph.ff_d_node g ff1 in
  checkb "q is source" true (Graph.is_source g qn);
  checkb "d is endpoint" true (Graph.is_endpoint g dn);
  (match Graph.launcher_of_node g qn with
  | Graph.Launch_ff c -> checki "launcher id" ff1 c
  | Graph.Launch_port _ -> Alcotest.fail "wrong launcher");
  match Graph.endpoint_of_node g dn with
  | Graph.End_ff c -> checki "endpoint id" ff1 c
  | Graph.End_port _ -> Alcotest.fail "wrong endpoint"

(* FFs present at the build resolve by array read; a cell added later
   takes the pin-name lookup and fails there as it always has *)
let test_graph_ff_nodes_after_build () =
  let d, ff1, ff2, inv = two_ff_design () in
  let g = Graph.build d in
  let via_pin ff name = Graph.node_of_pin g (Design.cell_pin d ff name) in
  List.iter
    (fun ff ->
      checkb "q = pin lookup" true (Some (Graph.ff_q_node g ff) = via_pin ff "Q");
      checkb "d = pin lookup" true (Some (Graph.ff_d_node g ff) = via_pin ff "D"))
    [ ff1; ff2 ];
  let late_ff = Design.add_cell d ~name:"ff3" ~master:"DFF" ~pos:(p 700. 700.) in
  let not_in_graph = Invalid_argument "Graph: pin is not in the data graph" in
  Alcotest.check_raises "late FF Q" not_in_graph (fun () -> ignore (Graph.ff_q_node g late_ff));
  Alcotest.check_raises "late FF D" not_in_graph (fun () -> ignore (Graph.ff_d_node g late_ff));
  let late_lcb = Design.add_cell d ~name:"lcb2" ~master:"LCB" ~pos:(p 700. 100.) in
  Alcotest.check_raises "late LCB has no Q" Not_found (fun () ->
      ignore (Graph.ff_q_node g late_lcb));
  Alcotest.check_raises "combinational cell has no D" Not_found (fun () ->
      ignore (Graph.ff_d_node g inv))

(* ------------------------------------------------------------------ *)
(* Propagation semantics *)

let test_arrival_ordering () =
  let d, ff1, ff2, _ = two_ff_design () in
  let t = Timer.build d in
  let g = Timer.graph t in
  (* min-corner arrival never exceeds max-corner arrival anywhere *)
  for n = 0 to Graph.num_nodes g - 1 do
    let amin = Timer.arrival t Timer.Early n and amax = Timer.arrival t Timer.Late n in
    if amin < infinity && amax > neg_infinity then
      checkb "min <= max" true (amin <= amax +. 1e-9)
  done;
  (* downstream FF sees a later arrival than its launcher's Q pin *)
  let q1 = Graph.ff_q_node g ff1 and d2 = Graph.ff_d_node g ff2 in
  checkb "arrival grows along path" true
    (Timer.arrival t Timer.Late d2 > Timer.arrival t Timer.Late q1)

let test_q_arrival_is_latency_plus_c2q () =
  let d, ff1, _, _ = two_ff_design () in
  let t = Timer.build d in
  let g = Timer.graph t in
  let c2q = (Cell.ff_params (Design.cell_master d ff1)).Cell.clk_to_q in
  checkf 1e-9 "Q max arrival"
    (Design.clock_latency d ff1 +. c2q)
    (Timer.arrival t Timer.Late (Graph.ff_q_node g ff1))

let test_slack_matches_equations () =
  (* endpoint slack at ff2.D equals Eq. (2) computed from the traced path
     delay *)
  let d, ff1, ff2, _ = two_ff_design () in
  let t = Timer.build d in
  let g = Timer.graph t in
  let cones, _ = Timer.cone_to_endpoint t Timer.Late (Graph.End_ff ff2) in
  let delay = List.assoc (Graph.Launch_ff ff1) cones in
  let expected = Timer.edge_slack t Timer.Late ~launcher:(Graph.Launch_ff ff1)
      ~endpoint:(Graph.End_ff ff2) ~delay in
  checkf 1e-6 "Eq.(2) = endpoint slack" expected
    (Timer.slack t Timer.Late (Graph.ff_d_node g ff2));
  (* and the early corner likewise, Eq. (1) *)
  let cones_e, _ = Timer.cone_to_endpoint t Timer.Early (Graph.End_ff ff2) in
  let delay_e = List.assoc (Graph.Launch_ff ff1) cones_e in
  let expected_e =
    Timer.edge_slack t Timer.Early ~launcher:(Graph.Launch_ff ff1) ~endpoint:(Graph.End_ff ff2)
      ~delay:delay_e
  in
  checkf 1e-6 "Eq.(1) = endpoint slack" expected_e
    (Timer.slack t Timer.Early (Graph.ff_d_node g ff2))

let test_latency_shifts_slack_linearly () =
  let d, _, ff2, _ = two_ff_design () in
  let t = Timer.build d in
  let g = Timer.graph t in
  let dn = Graph.ff_d_node g ff2 in
  let s0_late = Timer.slack t Timer.Late dn in
  let s0_early = Timer.slack t Timer.Early dn in
  Design.set_scheduled_latency d ff2 25.0;
  Timer.update_latencies t [ ff2 ];
  checkf 1e-6 "late slack +25" (s0_late +. 25.0) (Timer.slack t Timer.Late dn);
  checkf 1e-6 "early slack -25" (s0_early -. 25.0) (Timer.slack t Timer.Early dn)

let test_launch_slack_is_min_outgoing () =
  (* w^out (Eq. 6): the launch-pin slack equals the worst edge slack over
     the launcher's fan-out cone *)
  let design = Generator.micro () in
  let t = Timer.build design in
  let ffs = Design.ffs design in
  Array.iter
    (fun ff ->
      let launcher = Graph.Launch_ff ff in
      let cones, _ = Timer.cone_from_launcher t Timer.Late launcher in
      if cones <> [] then begin
        let w_min =
          List.fold_left
            (fun acc (endpoint, delay) ->
              Float.min acc (Timer.edge_slack t Timer.Late ~launcher ~endpoint ~delay))
            infinity cones
        in
        checkf 1e-6
          (Printf.sprintf "w_out of %s" (Design.cell_name design ff))
          w_min
          (Timer.launch_slack t Timer.Late launcher)
      end)
    ffs

let test_wns_tns () =
  let design = Generator.micro () in
  let t = Timer.build design in
  checkb "micro has late violations" true (Timer.wns t Timer.Late < 0.0);
  checkb "micro has early violations" true (Timer.wns t Timer.Early < 0.0);
  let v = Timer.violated_endpoints t Timer.Late in
  checkb "violations sorted worst-first" true
    (match v with
    | (_, a) :: (_, b) :: _ -> a <= b
    | _ -> true);
  let tns = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 v in
  checkf 1e-6 "tns = sum of violations" tns (Timer.tns t Timer.Late)

let test_worst_path_sane () =
  let design = Generator.micro () in
  let t = Timer.build design in
  match Timer.violated_endpoints t Timer.Late with
  | [] -> Alcotest.fail "expected a late violation"
  | (e, _) :: _ ->
    let path = Timer.worst_path t Timer.Late e in
    checkb "non-empty" true (List.length path >= 2);
    (* first pin is a launch pin: FF Q or input port *)
    let first = List.hd path in
    (match Design.pin_owner design first with
    | Design.Cell_pin (c, pin_name) ->
      checkb "starts at a Q pin" true (Design.is_ff design c && pin_name = "Q")
    | Design.Port_pin port -> checkb "or an input port" true (Design.port_dir design port = Design.In))

let test_clock_uncertainty_tightens_checks () =
  let d, _, ff2, _ = two_ff_design () in
  let t0 = Timer.build d in
  let cfg =
    { Timer.default_config with Timer.setup_uncertainty = 30.0; Timer.hold_uncertainty = 10.0 }
  in
  let t1 = Timer.build ~config:cfg d in
  let g = Timer.graph t0 in
  let dn = Graph.ff_d_node g ff2 in
  checkf 1e-6 "late slack shrinks by the setup margin"
    (Timer.slack t0 Timer.Late dn -. 30.0)
    (Timer.slack t1 Timer.Late dn);
  checkf 1e-6 "early slack shrinks by the hold margin"
    (Timer.slack t0 Timer.Early dn -. 10.0)
    (Timer.slack t1 Timer.Early dn);
  (* edge_slack uses the same margins *)
  let cones, _ = Timer.cone_to_endpoint t1 Timer.Late (Graph.End_ff ff2) in
  match cones with
  | (launcher, delay) :: _ ->
    checkf 1e-6 "Eq.(2) includes the margin"
      (Timer.slack t1 Timer.Late dn)
      (Timer.edge_slack t1 Timer.Late ~launcher ~endpoint:(Graph.End_ff ff2) ~delay)
  | [] -> Alcotest.fail "expected a cone"

(* ------------------------------------------------------------------ *)
(* Incremental propagation equals full propagation *)

let states_equal t1 t2 =
  let g = Timer.graph t1 in
  let ok = ref true in
  for n = 0 to Graph.num_nodes g - 1 do
    let close a b =
      (a = b) || Float.abs (a -. b) < 1e-6
    in
    if
      not
        (close (Timer.arrival t1 Timer.Late n) (Timer.arrival t2 Timer.Late n)
        && close (Timer.arrival t1 Timer.Early n) (Timer.arrival t2 Timer.Early n)
        && close (Timer.required t1 Timer.Late n) (Timer.required t2 Timer.Late n)
        && close (Timer.required t1 Timer.Early n) (Timer.required t2 Timer.Early n))
    then ok := false
  done;
  !ok

let test_incremental_latency_update_equals_full () =
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let ffs = Design.ffs design in
  let rng = Css_util.Rng.create 99 in
  for round = 1 to 5 do
    let changed =
      List.init 3 (fun _ -> ffs.(Css_util.Rng.int rng (Array.length ffs)))
      |> List.sort_uniq compare
    in
    List.iter
      (fun ff ->
        Design.set_scheduled_latency design ff
          (Design.scheduled_latency design ff +. Css_util.Rng.float rng 40.0))
      changed;
    Timer.update_latencies t changed;
    let fresh = Timer.build design in
    checkb (Printf.sprintf "round %d incremental = full" round) true (states_equal t fresh)
  done

let test_incremental_move_update_equals_full () =
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let rng = Css_util.Rng.create 7 in
  let movable = ref [] in
  Design.iter_cells design (fun c ->
      if not (Design.is_ff design c || Design.is_lcb design c) then movable := c :: !movable);
  let movable = Array.of_list !movable in
  for round = 1 to 5 do
    let c = movable.(Css_util.Rng.int rng (Array.length movable)) in
    let pos = Design.cell_pos design c in
    Design.move_cell design c
      (Css_geometry.Rect.clamp (Design.die design)
         (Point.make (pos.Point.x +. Css_util.Rng.float_in rng (-200.) 200.)
            (pos.Point.y +. Css_util.Rng.float_in rng (-200.) 200.)));
    Timer.update_moved_cells t [ c ];
    let fresh = Timer.build design in
    checkb (Printf.sprintf "round %d move incremental = full" round) true (states_equal t fresh)
  done

let test_incremental_ff_move_updates_latency () =
  let d, ff1, _, _ = two_ff_design () in
  let t = Timer.build d in
  let g = Timer.graph t in
  let before = Timer.arrival t Timer.Late (Graph.ff_q_node g ff1) in
  Design.move_cell d ff1 (p 900. 900.);
  Timer.update_moved_cells t [ ff1 ];
  let after = Timer.arrival t Timer.Late (Graph.ff_q_node g ff1) in
  checkb "moving an FF changes its clock arrival" true (after > before);
  checkb "matches full rebuild" true (states_equal t (Timer.build d))

(* A moved LCB lengthens or shortens the branch to each of its FFs:
   their clock arrivals move with it, as a fresh build sees them. *)
let test_incremental_lcb_move_updates_latency () =
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let g = Timer.graph t in
  Array.iter
    (fun lcb ->
      match Design.ffs_of_lcb design lcb with
      | [] -> ()
      | ff :: _ ->
        let before = Timer.arrival t Timer.Late (Graph.ff_q_node g ff) in
        let pos = Design.cell_pos design lcb in
        Design.move_cell design lcb
          (Css_geometry.Rect.clamp (Design.die design)
             (Point.make (pos.Point.x +. 300.) (pos.Point.y -. 200.)));
        Timer.update_moved_cells t [ lcb ];
        checkb "the FF's clock arrival moved" true
          (Timer.arrival t Timer.Late (Graph.ff_q_node g ff) <> before);
        checkb "matches full rebuild" true (states_equal t (Timer.build design)))
    (Design.lcbs design);
  (* an LCB that drives no net moves without effect on any FF *)
  let spare = Design.add_cell design ~name:"spare_lcb" ~master:"LCB" ~pos:(Point.make 10. 10.) in
  let t = Timer.build design in
  Design.move_cell design spare (Point.make 500. 500.);
  Timer.update_moved_cells t [ spare ];
  checkb "a driverless LCB's move matches full rebuild" true (states_equal t (Timer.build design))

(* Random interleavings of the three update entry points. After every
   step the incremental state and every arc's entry in the delay column
   must equal a fresh full build bit for bit, and each sweep must
   recompute exactly the nodes it has to: its seeds plus the fan-out
   (forward) or fan-in (backward) of every node whose state changed.
   Those sets are rebuilt here from the before/after states, so a visit
   count equal to the set's size means no node was recomputed twice in
   one direction of one update. The delay evaluations are counted too:
   a move or resize evaluates every in-arc of every forward-recomputed
   node, a latency update only the cell arcs out of nodes whose slew
   moved. *)

type node_state = { fwd : float * float * float; bwd : float * float }

let node_states t =
  Array.init (Graph.num_nodes (Timer.graph t)) (fun n ->
      {
        fwd = (Timer.arrival t Timer.Late n, Timer.arrival t Timer.Early n, Timer.slew t n);
        bwd = (Timer.required t Timer.Late n, Timer.required t Timer.Early n);
      })

let slew_of s =
  let _, _, slew = s.fwd in
  slew

let column_equal t fresh =
  let ok = ref true in
  for a = 0 to Graph.num_arcs (Timer.graph t) - 1 do
    if
      Int64.bits_of_float (Timer.arc_delay t Timer.Late a)
      <> Int64.bits_of_float (Timer.arc_delay fresh Timer.Late a)
    then ok := false
  done;
  !ok

let is_cell_arc g a = match Graph.arc_kind g a with Graph.Cell_arc _ -> true | Graph.Net_arc -> false

(* the delay evaluations a latency-only update owes: the cell arcs out
   of every node whose slew it changed *)
let latency_evals g slew_moved =
  List.fold_left
    (fun acc u ->
      let k = ref 0 in
      Graph.iter_out g u (fun a _ -> if is_cell_arc g a then incr k);
      acc + !k)
    0 slew_moved

(* the seeds [Timer.update_moved_cells] derives from a set of cells *)
let moved_seeds d g cells =
  let fwd = ref [] and bwd = ref [] in
  let add l pin = Option.iter (fun n -> l := n :: !l) (Graph.node_of_pin g pin) in
  let nets = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let m = Design.cell_master d c in
      List.iter
        (fun pn ->
          let net = Design.pin_net_id d (Design.cell_pin d c pn) in
          if net >= 0 then Hashtbl.replace nets net ())
        (m.Cell.inputs @ m.Cell.outputs);
      if Design.is_ff d c then begin
        add fwd (Design.cell_pin d c "Q");
        add bwd (Design.cell_pin d c "D")
      end)
    cells;
  Hashtbl.iter
    (fun net () ->
      let drv = Design.net_driver_id d net in
      if drv >= 0 && Graph.node_of_pin g drv <> None then begin
        add fwd drv;
        add bwd drv;
        let c = Design.pin_cell_id d drv in
        if c >= 0 then
          List.iter (fun pn -> add bwd (Design.cell_pin d c pn)) (Design.cell_master d c).Cell.inputs;
        Design.iter_net_sinks d net (fun sink ->
            add fwd sink;
            add bwd sink)
      end)
    nets;
  (!fwd, !bwd)

let resize_partner = function
  | "INV_X1" -> Some "INV_X4"
  | "INV_X4" -> Some "INV_X1"
  | "BUF_X2" -> Some "BUF_X4"
  | "BUF_X4" -> Some "BUF_X2"
  | "NAND2_X1" -> Some "NAND2_X2"
  | "NAND2_X2" -> Some "NAND2_X1"
  | "NOR2_X1" -> Some "NOR2_X2"
  | "NOR2_X2" -> Some "NOR2_X1"
  | _ -> None

let prop_interleaved_updates =
  QCheck.Test.make ~name:"interleaved updates = full, each node once" ~count:12
    (QCheck.int_bound 1_000_000) (fun seed ->
      let d = Generator.generate Profile.tiny in
      let obs = Css_util.Obs.create () in
      let t = Timer.build ~obs d in
      let g = Timer.graph t in
      let rng = Css_util.Rng.create seed in
      let ffs = Design.ffs d in
      let movable = ref [] in
      Design.iter_cells d (fun c -> if not (Design.is_lcb d c) then movable := c :: !movable);
      let movable = Array.of_list !movable in
      let pick a = a.(Css_util.Rng.int rng (Array.length a)) in
      let ok = ref true in
      for _ = 1 to 10 do
        let before = node_states t in
        let f0 = counter obs "timer.forward_visits"
        and b0 = counter obs "timer.backward_visits"
        and e0 = counter obs "timer.arc_evals" in
        let step = Css_util.Rng.int rng 3 in
        let fwd_seeds, bwd_seeds =
          match step with
          | 0 ->
            let changed = List.sort_uniq compare (List.init 3 (fun _ -> pick ffs)) in
            List.iter
              (fun ff ->
                Design.set_scheduled_latency d ff
                  (Design.scheduled_latency d ff +. Css_util.Rng.float_in rng (-60.) 60.))
              changed;
            Timer.update_latencies t changed;
            (List.map (Graph.ff_q_node g) changed, List.map (Graph.ff_d_node g) changed)
          | 1 ->
            let c = pick movable in
            let pos = Design.cell_pos d c in
            Design.move_cell d c
              (Rect.clamp (Design.die d)
                 (p (pos.Point.x +. Css_util.Rng.float_in rng (-150.) 150.)
                    (pos.Point.y +. Css_util.Rng.float_in rng (-150.) 150.)));
            let seeds = moved_seeds d g [ c ] in
            Timer.update_moved_cells t [ c ];
            seeds
          | _ -> (
            let c = pick movable in
            match resize_partner (Design.cell_master d c).Cell.name with
            | None -> ([], [])
            | Some m ->
              let seeds = moved_seeds d g [ c ] in
              Timer.resize_cell t c m;
              seeds)
        in
        let after = node_states t in
        let changed sel = List.filter (fun n -> sel before.(n) <> sel after.(n)) (List.init (Array.length after) Fun.id) in
        let fwd_changed = changed (fun s -> s.fwd) and bwd_changed = changed (fun s -> s.bwd) in
        let expect seeds changed neighbours =
          let set = Hashtbl.create 64 in
          List.iter (fun n -> Hashtbl.replace set n ()) seeds;
          List.iter (fun n -> neighbours n (fun m -> Hashtbl.replace set m ())) changed;
          set
        in
        let fwd_set = expect fwd_seeds fwd_changed (fun n f -> Graph.iter_out g n (fun _ m -> f m)) in
        let bwd_set =
          expect (fwd_changed @ bwd_seeds) bwd_changed (fun n f -> Graph.iter_in g n (fun _ m -> f m))
        in
        let evals_expected =
          if step = 0 then
            latency_evals g (changed slew_of)
          else
            Hashtbl.fold
              (fun n () acc ->
                let k = ref 0 in
                Graph.iter_in g n (fun _ _ -> incr k);
                acc + !k)
              fwd_set 0
        in
        let fresh_t = Timer.build d in
        if after <> node_states fresh_t then ok := false;
        if not (column_equal t fresh_t) then ok := false;
        if counter obs "timer.forward_visits" - f0 <> Hashtbl.length fwd_set then ok := false;
        if counter obs "timer.backward_visits" - b0 <> Hashtbl.length bwd_set then ok := false;
        if counter obs "timer.arc_evals" - e0 <> evals_expected then ok := false
      done;
      !ok)

(* A latency change moves no pin, load or master: the update refreshes
   only the cell arcs out of nodes whose slew it moved, and no net arc,
   though the nodes it recomputes have net arcs in. *)
let test_latency_update_skips_net_arcs () =
  let d = Generator.generate Profile.tiny in
  let obs = Css_util.Obs.create () in
  let t = Timer.build ~obs d in
  let g = Timer.graph t in
  let rng = Css_util.Rng.create 5 in
  let ffs = Array.to_list (Design.ffs d) in
  List.iter
    (fun ff -> Design.set_scheduled_latency d ff (Css_util.Rng.float_in rng (-60.) 60.))
    ffs;
  let before = node_states t in
  let e0 = counter obs "timer.arc_evals" in
  Timer.update_latencies t ffs;
  let evals = counter obs "timer.arc_evals" - e0 in
  let after = node_states t in
  let moved sel =
    List.filter (fun n -> sel before.(n) <> sel after.(n)) (List.init (Array.length after) Fun.id)
  in
  let slew_moved = moved slew_of in
  (* net arcs into the heads of the nodes whose forward state changed *)
  let net_in = ref 0 in
  List.iter
    (fun u ->
      Graph.iter_out g u (fun _ v ->
          Graph.iter_in g v (fun a _ -> if not (is_cell_arc g a) then incr net_in)))
    (moved (fun s -> s.fwd));
  checkb (Printf.sprintf "recomputed nodes have net arcs in (%d)" !net_in) true (!net_in > 0);
  checkb (Printf.sprintf "some slew moved (%d nodes)" (List.length slew_moved)) true (slew_moved <> []);
  checki "evaluated exactly the cell arcs out of moved slews" (latency_evals g slew_moved) evals;
  checkb "column = fresh evaluation" true (column_equal t (Timer.build d))

(* Dev-profile builds pass [-opaque], which blocks cross-module
   inlining: every float-returning call across a module boundary then
   boxes its result (2 minor words). Calibrated on a trivial [Fvec]
   read, as in test_layout, so the budget below is strict under release
   inlining and tolerates only the boxing in dev. *)
let float_box_words =
  let fv = Css_util.Fvec.make 16 0.5 in
  let acc = [| 0.0 |] in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  (Gc.minor_words () -. before) /. 16.0

(* A latency update allocates a constant (its seed closures), whatever
   the size of the cones it re-propagates: the worklist, the changed
   buffer and the scratch floats are all the timer's own. *)
let test_update_latencies_allocation_free () =
  let d = Generator.generate Profile.tiny in
  let obs = Css_util.Obs.create () in
  let t = Timer.build ~obs d in
  let ffs = Array.to_list (Design.ffs d) in
  let raise_all delta =
    List.iter (fun ff -> Design.set_scheduled_latency d ff (Design.scheduled_latency d ff +. delta)) ffs
  in
  raise_all 3.0;
  Timer.update_latencies t ffs;
  let node_visits () = counter obs "timer.forward_visits" + counter obs "timer.backward_visits" in
  let visits0 = node_visits () in
  raise_all 5.0;
  let before = Gc.minor_words () in
  Timer.update_latencies t ffs;
  let allocated = Gc.minor_words () -. before in
  let visits = node_visits () - visits0 in
  (* dev boxes the cross-module float reads of a node's arcs and clock
     (pin coordinates, latencies): about four per visit, eight allowed *)
  let budget = (float_of_int visits *. 8.0 *. float_box_words) +. 256.0 in
  checkb (Printf.sprintf "update re-propagated (%d visits)" visits) true (visits > 100);
  checkb
    (Printf.sprintf "update_latencies allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true (allocated <= budget)

(* ------------------------------------------------------------------ *)
(* Cone enumeration *)

let test_cone_directions_agree () =
  (* forward cones and backward cones describe the same edge set with the
     same delays *)
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let g = Timer.graph t in
  let backward = Hashtbl.create 64 in
  Array.iter
    (fun en ->
      let e = Graph.endpoint_of_node g en in
      let cones, _ = Timer.cone_to_endpoint t Timer.Late e in
      List.iter (fun (l, delay) -> Hashtbl.replace backward (l, e) delay) cones)
    (Graph.endpoints g);
  Array.iter
    (fun sn ->
      let l = Graph.launcher_of_node g sn in
      let cones, _ = Timer.cone_from_launcher t Timer.Late l in
      List.iter
        (fun (e, delay) ->
          match Hashtbl.find_opt backward (l, e) with
          | None -> Alcotest.fail "forward cone found an edge backward missed"
          | Some d -> checkf 1e-6 "delays agree" d delay)
        cones)
    (Graph.sources g);
  (* count both ways *)
  let fwd_count =
    Array.fold_left
      (fun acc sn ->
        let l = Graph.launcher_of_node g sn in
        acc + List.length (fst (Timer.cone_from_launcher t Timer.Late l)))
      0 (Graph.sources g)
  in
  checki "same edge count" (Hashtbl.length backward) fwd_count

let test_cone_visits_positive () =
  let design = Generator.micro () in
  let obs = Css_util.Obs.create () in
  let t = Timer.build ~obs design in
  let g = Timer.graph t in
  let e = Graph.endpoint_of_node g (Graph.endpoints g).(0) in
  let _, visited = Timer.cone_to_endpoint t Timer.Late e in
  checkb "visited counted" true (visited > 0);
  checki "counter accumulates" visited (counter obs "timer.cone_nodes")

let test_k_worst_paths_consistency () =
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let g = Timer.graph t in
  Array.iter
    (fun en ->
      let e = Graph.endpoint_of_node g en in
      match Timer.k_worst_paths t Timer.Late e ~k:3 with
      | [] -> checkb "unconstrained endpoint" true (Timer.slack t Timer.Late en = infinity)
      | (s1, pins1) :: rest ->
        (* the first enumerated path is critical: same slack and the same
           terminal pin (the pins may differ from [worst_path] only when
           two parallel arcs tie exactly) *)
        let s_ref = Timer.slack t Timer.Late en in
        if Float.abs (s1 -. s_ref) >= 1e-6 then
          Alcotest.failf "k=1 slack %.6f <> endpoint slack %.6f" s1 s_ref;
        let reference = Timer.worst_path t Timer.Late e in
        checki "same endpoint pin"
          (List.nth reference (List.length reference - 1))
          (List.nth pins1 (List.length pins1 - 1));
        (* slacks are non-decreasing across the enumeration *)
        let rec mono prev = function
          | [] -> ()
          | (s, _) :: tl ->
            checkb "ordered" true (s >= prev -. 1e-9);
            mono s tl
        in
        mono s1 rest)
    (Graph.endpoints g)

let test_k_worst_paths_distinct () =
  let design = Generator.generate Profile.tiny in
  let t = Timer.build design in
  let g = Timer.graph t in
  Array.iter
    (fun en ->
      let e = Graph.endpoint_of_node g en in
      let paths = Timer.k_worst_paths t Timer.Late e ~k:5 in
      let pin_lists = List.map snd paths in
      checki "no duplicate paths"
        (List.length pin_lists)
        (List.length (List.sort_uniq compare pin_lists)))
    (Graph.endpoints g)

let test_k_worst_paths_early_corner () =
  let design = Generator.micro () in
  let t = Timer.build design in
  match Timer.violated_endpoints t Timer.Early with
  | [] -> Alcotest.fail "expected an early violation"
  | (e, s) :: _ -> (
    match Timer.k_worst_paths t Timer.Early e ~k:1 with
    | [ (s1, _) ] -> checkb "early slack agrees" true (Float.abs (s1 -. s) < 1e-6)
    | _ -> Alcotest.fail "expected exactly one path")

let test_early_cone_is_min_delay () =
  let d, ff1, ff2, _ = two_ff_design () in
  let t = Timer.build d in
  let cones_l, _ = Timer.cone_to_endpoint t Timer.Late (Graph.End_ff ff2) in
  let cones_e, _ = Timer.cone_to_endpoint t Timer.Early (Graph.End_ff ff2) in
  let dl = List.assoc (Graph.Launch_ff ff1) cones_l in
  let de = List.assoc (Graph.Launch_ff ff1) cones_e in
  checkb "min-corner delay <= max-corner delay" true (de <= dl +. 1e-9)

let () =
  Alcotest.run "sta"
    [
      ( "graph",
        [
          Alcotest.test_case "clock network excluded" `Quick test_graph_excludes_clock_network;
          Alcotest.test_case "sources/endpoints" `Quick test_graph_sources_endpoints;
          Alcotest.test_case "levels monotone" `Quick test_graph_levels_monotone;
          Alcotest.test_case "topo permutation" `Quick test_graph_topo_is_permutation;
          Alcotest.test_case "ff nodes" `Quick test_graph_ff_nodes;
          Alcotest.test_case "ff nodes after build" `Quick test_graph_ff_nodes_after_build;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "arrival ordering" `Quick test_arrival_ordering;
          Alcotest.test_case "Q arrival" `Quick test_q_arrival_is_latency_plus_c2q;
          Alcotest.test_case "slack = Eq.(1)/(2)" `Quick test_slack_matches_equations;
          Alcotest.test_case "latency shifts slack" `Quick test_latency_shifts_slack_linearly;
          Alcotest.test_case "launch slack = w_out" `Quick test_launch_slack_is_min_outgoing;
          Alcotest.test_case "wns/tns" `Quick test_wns_tns;
          Alcotest.test_case "worst path" `Quick test_worst_path_sane;
          Alcotest.test_case "clock uncertainty" `Quick test_clock_uncertainty_tightens_checks;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "latency update = full" `Quick
            test_incremental_latency_update_equals_full;
          Alcotest.test_case "move update = full" `Quick test_incremental_move_update_equals_full;
          Alcotest.test_case "ff move updates latency" `Quick
            test_incremental_ff_move_updates_latency;
          Alcotest.test_case "lcb move updates its ffs' latency" `Quick
            test_incremental_lcb_move_updates_latency;
          QCheck_alcotest.to_alcotest prop_interleaved_updates;
          Alcotest.test_case "latency update skips net arcs" `Quick
            test_latency_update_skips_net_arcs;
          Alcotest.test_case "update_latencies allocation-free" `Quick
            test_update_latencies_allocation_free;
        ] );
      ( "cones",
        [
          Alcotest.test_case "directions agree" `Quick test_cone_directions_agree;
          Alcotest.test_case "visit accounting" `Quick test_cone_visits_positive;
          Alcotest.test_case "early cone is min-delay" `Quick test_early_cone_is_min_delay;
          Alcotest.test_case "k-worst paths consistency" `Quick test_k_worst_paths_consistency;
          Alcotest.test_case "k-worst paths distinct" `Quick test_k_worst_paths_distinct;
          Alcotest.test_case "k-worst paths early" `Quick test_k_worst_paths_early_corner;
        ] );
    ]
