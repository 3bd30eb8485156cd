(* Tests for the extensions beyond the paper's core algorithm:
   - Eq. (5) clock latency bounds (customized clock skew scheduling);
   - gate sizing (swap_master / Timer.resize_cell / the Resize passes);
   - CTS guidance (cluster targets, insert new LCBs). *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Graph = Css_sta.Graph
module Timer = Css_sta.Timer
module Cell = Css_liberty.Cell
module Library = Css_liberty.Library
module Engine = Css_core.Engine
module Scheduler = Css_core.Scheduler
module Resize = Css_opt.Resize
module Cts_guide = Css_opt.Cts_guide
module Evaluator = Css_eval.Evaluator
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Eq. (5) latency bounds *)

let test_bounds_accessors () =
  let d = Generator.micro () in
  let ff = (Design.ffs d).(0) in
  let lo0, hi0 = Design.latency_bounds d ff in
  checkf 1e-9 "default lo" 0.0 lo0;
  checkb "default hi" true (hi0 = infinity);
  Design.set_latency_bounds d ff ~lo:10.0 ~hi:120.0;
  let lo, hi = Design.latency_bounds d ff in
  checkf 1e-9 "lo" 10.0 lo;
  checkf 1e-9 "hi" 120.0 hi;
  Design.clear_latency_bounds d ff;
  checkb "cleared" true (snd (Design.latency_bounds d ff) = infinity);
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Design.set_latency_bounds: need 0 <= lo <= hi") (fun () ->
      Design.set_latency_bounds d ff ~lo:5.0 ~hi:1.0)

let test_bounds_io_roundtrip () =
  let d = Generator.micro () in
  let ff = (Design.ffs d).(1) in
  Design.set_latency_bounds d ff ~lo:0.0 ~hi:77.5;
  let d2 = Io.of_string_exn ~library:(Design.library d) (Io.to_string d) in
  let name = Design.cell_name d ff in
  let ff2 =
    Array.to_list (Design.ffs d2) |> List.find (fun c -> Design.cell_name d2 c = name)
  in
  checkf 1e-6 "hi survives roundtrip" 77.5 (snd (Design.latency_bounds d2 ff2))

let test_bounds_cap_scheduler () =
  (* with a tight window, the scheduler must never push a flip-flop's
     total latency past its Eq. (5) upper bound *)
  let design = Generator.micro () in
  let timer = Timer.build design in
  (* micro's late fix raises ffb by ~180 ps; bound it to +40 *)
  let ffb =
    Array.to_list (Design.ffs design) |> List.find (fun c -> Design.cell_name design c = "ffb")
  in
  let hi = Design.physical_clock_latency design ffb +. 40.0 in
  Design.set_latency_bounds design ffb ~lo:0.0 ~hi;
  let tns0 = Timer.tns timer Timer.Late in
  ignore (Engine.run_ours timer ~corner:Timer.Late);
  checkb "still improved" true (Timer.tns timer Timer.Late > tns0);
  checkb "bound respected" true (Design.clock_latency design ffb <= hi +. 1e-6)

let test_bounds_limit_improvement () =
  (* the bounded run must achieve less than the unbounded one *)
  let run bound =
    let design = Generator.micro () in
    let timer = Timer.build design in
    if bound then begin
      let ffb =
        Array.to_list (Design.ffs design)
        |> List.find (fun c -> Design.cell_name design c = "ffb")
      in
      Design.set_latency_bounds design ffb ~lo:0.0
        ~hi:(Design.physical_clock_latency design ffb +. 40.0)
    end;
    ignore (Engine.run_ours timer ~corner:Timer.Late);
    Timer.tns timer Timer.Late
  in
  checkb "tight bound costs slack" true (run true < run false -. 1.0)

let test_bounds_evaluator_flags_violation () =
  let design = Generator.micro () in
  let ff = (Design.ffs design).(0) in
  (* impose a window far below the physical latency *)
  Design.set_latency_bounds design ff ~lo:0.0 ~hi:1.0;
  let r = Evaluator.evaluate design in
  checkb "violation reported" true
    (List.exists
       (fun e -> String.length e > 0 && String.sub e 0 9 = "flip-flop")
       r.Evaluator.constraint_errors)

(* ------------------------------------------------------------------ *)
(* Gate sizing: library plumbing *)

let test_same_interface () =
  let lib = Library.default in
  let inv1 = Library.find lib "INV_X1" and inv4 = Library.find lib "INV_X4" in
  let nand = Library.find lib "NAND2_X1" in
  checkb "inv variants" true (Cell.same_interface inv1 inv4);
  checkb "inv vs nand" false (Cell.same_interface inv1 nand);
  checkb "nand variants" true (Cell.same_interface nand (Library.find lib "NAND2_X2"))

let test_variants_sorted () =
  let lib = Library.default in
  let inv1 = Library.find lib "INV_X1" in
  let vs = Library.variants lib inv1 in
  checki "two inverter sizes" 2 (List.length vs);
  (match vs with
  | a :: b :: _ -> checkb "weakest first" true (a.Cell.drive_res >= b.Cell.drive_res)
  | _ -> Alcotest.fail "expected two variants");
  let dff = Library.flip_flop lib in
  checki "DFF has only itself" 1 (List.length (Library.variants lib dff))

let test_swap_master () =
  let d = Generator.micro () in
  let inv =
    let found = ref (-1) in
    Design.iter_cells d (fun c ->
        if !found < 0 && (Design.cell_master d c).Cell.name = "INV_X1" then found := c);
    !found
  in
  let pin_before = Design.cell_pin d inv "A" in
  Design.swap_master d inv "INV_X4";
  Alcotest.check Alcotest.string "master swapped" "INV_X4" (Design.cell_master d inv).Cell.name;
  checki "pins preserved" pin_before (Design.cell_pin d inv "A");
  Alcotest.check_raises "incompatible swap rejected"
    (Invalid_argument "Design.swap_master: INV_X4 and NAND2_X1 have different interfaces")
    (fun () -> Design.swap_master d inv "NAND2_X1")

let test_resize_cell_updates_timing () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let inv =
    let found = ref (-1) in
    Design.iter_cells design (fun c ->
        if !found < 0 && (Design.cell_master design c).Cell.name = "INV_X1" then found := c);
    !found
  in
  let tns0 = Timer.tns timer Timer.Late in
  Timer.resize_cell timer inv "INV_X4";
  let tns1 = Timer.tns timer Timer.Late in
  checkb "upsizing an inverter on the critical chain helps" true (tns1 > tns0);
  (* incremental state equals a fresh build *)
  let fresh = Timer.build design in
  checkf 1e-6 "matches full rebuild" (Timer.tns fresh Timer.Late) tns1;
  checkf 1e-6 "early too" (Timer.tns fresh Timer.Early) (Timer.tns timer Timer.Early)

let test_upsize_pass_improves_late () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Late in
  let stats = Resize.upsize_late timer in
  checkb "tried swaps" true (stats.Resize.swaps_tried > 0);
  checkb "late TNS improved" true (Timer.tns timer Timer.Late > tns0);
  checkb "counted upsizes" true (stats.Resize.upsized > 0)

let test_upsize_guards_hold () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let early0 = Timer.wns timer Timer.Early in
  ignore (Resize.upsize_late timer);
  checkb "hold not degraded" true (Timer.wns timer Timer.Early >= early0 -. 1e-6)

let test_downsize_pass () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Early in
  let late0 = Timer.wns timer Timer.Late in
  let stats = Resize.downsize_early timer in
  checkb "early not degraded" true (Timer.tns timer Timer.Early >= tns0 -. 1e-6);
  checkb "late WNS guarded" true (Timer.wns timer Timer.Late >= late0 -. 1e-6);
  ignore stats

(* ------------------------------------------------------------------ *)
(* CTS guidance *)

let collect_targets design result verts =
  let acc = ref [] in
  Array.iteri
    (fun v l ->
      if l > 1e-9 then
        match Css_seqgraph.Vertex.ff_of verts v with
        | Some ff -> acc := (ff, l) :: !acc
        | None -> ())
    result.Scheduler.target_latency;
  ignore design;
  !acc

let test_cts_plan_pure () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let verts = Css_seqgraph.Seq_graph.vertices (Css_seqgraph.Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  let targets = collect_targets design result verts in
  let cells_before = Design.num_cells design in
  let plan = Cts_guide.plan timer ~targets in
  checki "plan does not mutate" cells_before (Design.num_cells design);
  checkb "clusters proposed" true (targets = [] || plan.Cts_guide.clusters <> []);
  List.iter
    (fun c ->
      checkb "cluster non-empty" true (c.Cts_guide.members <> []);
      checkb "fanout bounded" true (List.length c.Cts_guide.members <= Design.lcb_fanout_limit);
      checkb "site on die" true (Css_geometry.Rect.contains (Design.die design) c.Cts_guide.lcb_pos))
    plan.Cts_guide.clusters

let test_cts_apply_inserts_lcbs () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let verts = Css_seqgraph.Seq_graph.vertices (Css_seqgraph.Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  let targets = collect_targets design result verts in
  if targets <> [] then begin
    let lcbs_before = Array.length (Design.lcbs design) in
    let plan = Cts_guide.plan timer ~targets in
    let applied = Cts_guide.apply timer plan in
    checki "LCBs inserted"
      (lcbs_before + List.length applied.Cts_guide.new_lcbs)
      (Array.length (Design.lcbs design));
    checkb "netlist still well-formed" true (Design.check design = []);
    (* every hosted flip-flop now homes on a new LCB and its virtual
       latency was consumed *)
    List.iter
      (fun ff ->
        checkb "re-homed to a new LCB" true
          (List.mem (Design.lcb_of_ff design ff) applied.Cts_guide.new_lcbs);
        checkf 1e-9 "scheduled consumed" 0.0 (Design.scheduled_latency design ff))
      applied.Cts_guide.hosted
  end

let test_cts_apply_improves_physical_timing () =
  (* CTS + reconnection fallback (as the flow stages them) must realize
     the schedule into better *physical* late timing. A schedule realized
     only partially can regress, which is exactly why the two passes are
     paired. *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let physical_before = (Evaluator.evaluate design).Evaluator.tns_late in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let verts = Css_seqgraph.Seq_graph.vertices (Css_seqgraph.Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  let targets = collect_targets design result verts in
  if targets <> [] then begin
    let plan = Cts_guide.plan timer ~targets in
    let applied = Cts_guide.apply timer plan in
    let leftover =
      List.filter (fun (ff, _) -> not (List.mem ff applied.Cts_guide.hosted)) targets
    in
    ignore (Css_opt.Reconnect.realize timer ~targets:leftover);
    let physical_after = (Evaluator.evaluate design).Evaluator.tns_late in
    checkb "physical late TNS improved" true (physical_after > physical_before)
  end

(* Inserted LCBs are named from the design, not from a process-wide
   counter: two identical CTS runs in one process write the same text. *)
let test_cts_names_deterministic () =
  let run () =
    let design = Generator.generate Profile.tiny in
    let config = { Css_flow.Flow.default_config with Css_flow.Flow.use_cts = true } in
    ignore (Css_flow.Flow.run ~config ~algo:Css_flow.Flow.Ours design);
    Io.to_string design
  in
  let first = run () in
  let inserted = ref 0 in
  String.split_on_char '\n' first
  |> List.iter (fun l -> if String.starts_with ~prefix:"cell cts_lcb" l then incr inserted);
  checkb "the run inserted LCBs" true (!inserted > 0);
  checkb "the second run writes the same design" true (String.equal first (run ()))

(* A plan proposes at most 16 LCBs, even for 18 fanout-limit-sized
   groups of targeted flip-flops. *)
let test_cts_respects_budget () =
  let limit = Design.lcb_fanout_limit in
  let design =
    Generator.generate { Profile.tiny with Profile.num_ffs = 18 * limit; num_lcbs = 18 }
  in
  let timer = Timer.build design in
  let targets = Array.to_list (Array.map (fun ff -> (ff, 50.0)) (Design.ffs design)) in
  let plan = Cts_guide.plan timer ~targets in
  checkb "some clusters" true (plan.Cts_guide.clusters <> []);
  checkb "at most sixteen clusters" true (List.length plan.Cts_guide.clusters <= 16);
  List.iter
    (fun c -> checkb "fanout bounded" true (List.length c.Cts_guide.members <= limit))
    plan.Cts_guide.clusters

let test_net_add_sink_validation () =
  let design = Generator.micro () in
  let ff = (Design.ffs design).(0) in
  let d_pin = Design.cell_pin design ff "D" in
  let net = Option.get (Design.pin_net design d_pin) in
  Alcotest.check_raises "connected pin rejected"
    (Invalid_argument "Design.net_add_sink: pin already connected") (fun () ->
      Design.net_add_sink design net d_pin)

let () =
  Alcotest.run "extensions"
    [
      ( "latency-bounds",
        [
          Alcotest.test_case "accessors" `Quick test_bounds_accessors;
          Alcotest.test_case "io roundtrip" `Quick test_bounds_io_roundtrip;
          Alcotest.test_case "scheduler respects cap" `Quick test_bounds_cap_scheduler;
          Alcotest.test_case "bound limits improvement" `Quick test_bounds_limit_improvement;
          Alcotest.test_case "evaluator flags violation" `Quick
            test_bounds_evaluator_flags_violation;
        ] );
      ( "gate-sizing",
        [
          Alcotest.test_case "same_interface" `Quick test_same_interface;
          Alcotest.test_case "variants sorted" `Quick test_variants_sorted;
          Alcotest.test_case "swap_master" `Quick test_swap_master;
          Alcotest.test_case "resize_cell updates timing" `Quick test_resize_cell_updates_timing;
          Alcotest.test_case "upsize improves late" `Quick test_upsize_pass_improves_late;
          Alcotest.test_case "upsize guards hold" `Quick test_upsize_guards_hold;
          Alcotest.test_case "downsize pass" `Quick test_downsize_pass;
        ] );
      ( "cts-guidance",
        [
          Alcotest.test_case "plan is pure" `Quick test_cts_plan_pure;
          Alcotest.test_case "apply inserts LCBs" `Quick test_cts_apply_inserts_lcbs;
          Alcotest.test_case "apply improves physical timing" `Quick
            test_cts_apply_improves_physical_timing;
          Alcotest.test_case "budget respected" `Quick test_cts_respects_budget;
          Alcotest.test_case "names derive from the design" `Quick test_cts_names_deterministic;
          Alcotest.test_case "net_add_sink validation" `Quick test_net_add_sink_validation;
        ] );
    ]
