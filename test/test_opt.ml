(* Tests for the physical optimization passes: LCB-FF reconnection
   (Section IV-A) and cell movement (Section IV-B). *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Reconnect = Css_opt.Reconnect
module Cell_move = Css_opt.Cell_move
module Engine = Css_core.Engine
module Scheduler = Css_core.Scheduler
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Point = Css_geometry.Point

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Reconnection *)

let test_reconnect_realizes_target () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(20) in
  let before = Design.physical_clock_latency design ff in
  let target = 80.0 in
  let stats = Reconnect.realize timer ~targets:[ (ff, target) ] in
  checki "attempted" 1 stats.Reconnect.attempted;
  let after = Design.physical_clock_latency design ff in
  checkb "latency moved towards target" true (after > before);
  (* the achieved latency is within a branch-quantization error *)
  checkb "reasonably close" true (Float.abs (after -. (before +. target)) < 40.0)

let test_reconnect_clears_scheduled () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(15) in
  Design.set_scheduled_latency design ff 50.0;
  Timer.update_latencies timer [ ff ];
  ignore (Reconnect.realize timer ~targets:[ (ff, 50.0) ]);
  checkf 1e-9 "scheduled consumed" 0.0 (Design.scheduled_latency design ff)

let test_reconnect_small_target_keeps_lcb () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(10) in
  let lcb0 = Design.lcb_of_ff design ff in
  let stats = Reconnect.realize timer ~targets:[ (ff, 0.05) ] in
  checki "below min_target: not attempted" 0 stats.Reconnect.attempted;
  checki "lcb unchanged" lcb0 (Design.lcb_of_ff design ff)

let test_reconnect_respects_fanout_limit () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let targets = Array.to_list (Array.map (fun ff -> (ff, 60.0)) (Design.ffs design)) in
  ignore (Reconnect.realize timer ~targets);
  Array.iter
    (fun lcb ->
      checkb "fanout within the limit" true
        (Design.lcb_fanout design lcb <= Design.lcb_fanout_limit))
    (Design.lcbs design)

(* One pass lets an LCB adopt at most 8 flip-flops. *)
let test_reconnect_adoption_cap () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let before = Array.map (fun lcb -> Design.lcb_fanout design lcb) (Design.lcbs design) in
  let targets = Array.to_list (Array.map (fun ff -> (ff, 60.0)) (Design.ffs design)) in
  ignore (Reconnect.realize timer ~targets);
  Array.iteri
    (fun i lcb ->
      checkb "at most eight adoptions" true (Design.lcb_fanout design lcb <= before.(i) + 8))
    (Design.lcbs design)

let test_reconnect_reduces_violation_after_css () =
  (* the full CSS -> realize pipeline leaves a better *physical* state *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let eval0 = Css_eval.Evaluator.evaluate design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Early in
  let verts = Seq_graph.vertices extraction.Scheduler.graph in
  let result = Scheduler.run timer extraction in
  let targets = ref [] in
  Array.iteri
    (fun v l ->
      if l > 1e-9 then
        match Vertex.ff_of verts v with
        | Some ff -> targets := (ff, l) :: !targets
        | None -> ())
    result.Scheduler.target_latency;
  ignore (Reconnect.realize timer ~targets:!targets);
  let eval1 = Css_eval.Evaluator.evaluate design in
  checkb "physical early TNS improved" true
    (eval1.Css_eval.Evaluator.tns_early > eval0.Css_eval.Evaluator.tns_early)

(* ------------------------------------------------------------------ *)
(* Cell movement *)

(* a design whose hold violation is repairable by lengthening the data
   path: short path with a movable buffer in the middle *)
let movable_hold_design () =
  let module Rect = Css_geometry.Rect in
  let library = Css_liberty.Library.default in
  let d =
    Design.create ~name:"mv" ~library
      ~die:(Rect.make ~lx:0. ~ly:0. ~hx:4000. ~hy:4000.)
      ~clock_period:400.0 ()
  in
  let p = Point.make in
  let clk = Design.add_port d ~name:"clk" ~dir:Design.In ~pos:(p 0. 0.) in
  Design.set_clock_root d clk;
  let out = Design.add_port d ~name:"out" ~dir:Design.Out ~pos:(p 4000. 2000.) in
  let inp = Design.add_port d ~name:"in" ~dir:Design.In ~pos:(p 0. 2000.) in
  let lcb0 = Design.add_cell d ~name:"lcb0" ~master:"LCB" ~pos:(p 500. 500.) in
  let lcb1 = Design.add_cell d ~name:"lcb1" ~master:"LCB" ~pos:(p 3500. 3500.) in
  let ffa = Design.add_cell d ~name:"ffa" ~master:"DFF" ~pos:(p 600. 600.) in
  (* ffb next to ffa but clocked from far lcb1: the hold victim *)
  let ffb = Design.add_cell d ~name:"ffb" ~master:"DFF" ~pos:(p 800. 700.) in
  let buf = Design.add_cell d ~name:"buf" ~master:"BUF_X2" ~pos:(p 700. 650.) in
  let pin c n = Design.cell_pin d c n in
  let net = ref 0 in
  let add driver sinks =
    incr net;
    ignore (Design.add_net d ~name:(Printf.sprintf "n%d" !net) ~driver ~sinks)
  in
  add (Design.port_pin d clk) [ pin lcb0 "CKI"; pin lcb1 "CKI" ];
  add (pin lcb0 "CKO") [ pin ffa "CK" ];
  add (pin lcb1 "CKO") [ pin ffb "CK" ];
  add (Design.port_pin d inp) [ pin ffa "D" ];
  add (pin ffa "Q") [ pin buf "A" ];
  add (pin buf "Z") [ pin ffb "D" ];
  add (pin ffb "Q") [ Design.port_pin d out ];
  d

let test_cell_move_repairs_hold () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Early in
  checkb "hold violation present" true (tns0 < 0.0);
  let stats = Cell_move.repair_early timer in
  checkb "processed endpoints" true (stats.Cell_move.endpoints_processed >= 1);
  checkb "tried moves" true (stats.Cell_move.moves_tried >= 1);
  checkb "early TNS improved" true (Timer.tns timer Timer.Early > tns0)

let test_cell_move_respects_displacement () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  ignore (Cell_move.repair_early timer);
  Design.iter_cells design (fun c ->
      let moved = Point.manhattan (Design.cell_pos design c) (Design.cell_orig_pos design c) in
      checkb "within budget" true (moved <= Design.max_displacement +. 1e-9))

let test_cell_move_never_degrades_late_wns () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let late0 = Timer.wns timer Timer.Late in
  ignore (Cell_move.repair_early timer);
  checkb "late WNS preserved" true (Timer.wns timer Timer.Late >= late0 -. 1e-6)

let test_cell_move_noop_when_clean () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  ignore (Cell_move.repair_early timer);
  (* second run has nothing violated left to process, or at least does
     not move anything further *)
  let pos_before = Array.init (Design.num_cells design) (fun c -> Design.cell_pos design c) in
  let stats = Cell_move.repair_early timer in
  if stats.Cell_move.endpoints_processed = 0 then
    Design.iter_cells design (fun c ->
        checkb "no motion" true (Point.equal (Design.cell_pos design c) pos_before.(c)))

let test_cell_move_only_moves_combinational () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let ff_pos = Array.map (fun ff -> Design.cell_pos design ff) (Design.ffs design) in
  let lcb_pos = Array.map (fun l -> Design.cell_pos design l) (Design.lcbs design) in
  ignore (Cell_move.repair_early timer);
  Array.iteri
    (fun i ff -> checkb "FFs unmoved" true (Point.equal (Design.cell_pos design ff) ff_pos.(i)))
    (Design.ffs design);
  Array.iteri
    (fun i l -> checkb "LCBs unmoved" true (Point.equal (Design.cell_pos design l) lcb_pos.(i)))
    (Design.lcbs design)

let () =
  Alcotest.run "opt"
    [
      ( "reconnect",
        [
          Alcotest.test_case "realizes target" `Quick test_reconnect_realizes_target;
          Alcotest.test_case "clears scheduled" `Quick test_reconnect_clears_scheduled;
          Alcotest.test_case "small target keeps LCB" `Quick test_reconnect_small_target_keeps_lcb;
          Alcotest.test_case "fanout limit" `Quick test_reconnect_respects_fanout_limit;
          Alcotest.test_case "adoption cap" `Quick test_reconnect_adoption_cap;
          Alcotest.test_case "CSS+realize improves" `Quick
            test_reconnect_reduces_violation_after_css;
        ] );
      ( "cell-move",
        [
          Alcotest.test_case "repairs hold" `Quick test_cell_move_repairs_hold;
          Alcotest.test_case "displacement budget" `Quick test_cell_move_respects_displacement;
          Alcotest.test_case "late WNS preserved" `Quick test_cell_move_never_degrades_late_wns;
          Alcotest.test_case "noop when clean" `Quick test_cell_move_noop_when_clean;
          Alcotest.test_case "only moves combinational" `Quick
            test_cell_move_only_moves_combinational;
        ] );
    ]
