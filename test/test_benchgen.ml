(* Tests for the synthetic benchmark generator: determinism, structural
   well-formedness, and the presence of the violation structures the CSS
   algorithms are exercised on. *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Evaluator = Css_eval.Evaluator
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_presets_named () =
  let names = [ "sb1"; "sb3"; "sb4"; "sb5"; "sb7"; "sb10"; "sb16"; "sb18" ] in
  checki "eight presets" 8 (List.length Profile.presets);
  List.iter
    (fun n -> checkb n true (Profile.by_name n <> None))
    names;
  checkb "unknown" true (Profile.by_name "sb99" = None)

(* [by_name] finds [tiny], so every binary's [--profile tiny --scale N]
   scales it; it stays out of [presets], which the suite benches
   iterate *)
let test_tiny_by_name () =
  checkb "by_name \"tiny\" is tiny" true (Profile.by_name "tiny" = Some Profile.tiny);
  checki "still eight presets" 8 (List.length Profile.presets);
  checkb "tiny is not a preset" false
    (List.exists (fun p -> p.Profile.name = "tiny") Profile.presets)

let test_scale () =
  let p = Option.get (Profile.by_name "sb18") in
  let half = Profile.scale 0.5 p in
  checki "ffs halved" (p.Profile.num_ffs / 2) half.Profile.num_ffs;
  checkb "period untouched" true (half.Profile.clock_period = p.Profile.clock_period);
  let tiny_scale = Profile.scale 0.0001 p in
  checkb "counts never drop to zero" true (tiny_scale.Profile.num_lcbs >= 1)

let test_paper_variants () =
  let p = Option.get (Profile.by_name "sb18") in
  let pp = Option.get (Profile.by_name "sb18-paper") in
  checkb "named <preset>-paper" true (pp.Profile.name = "sb18-paper");
  checki "x100 FF count" (100 * p.Profile.num_ffs) pp.Profile.num_ffs;
  checkb "period stretched by sqrt(factor)" true
    (Float.abs (pp.Profile.clock_period -. (p.Profile.clock_period *. 10.0)) < 1e-9);
  checkb "same as Profile.paper" true (Profile.paper p = pp);
  checkb "unknown base rejected" true (Profile.by_name "sb99-paper" = None);
  checkb "bare suffix rejected" true (Profile.by_name "-paper" = None)

let test_deterministic () =
  let d1 = Generator.generate Profile.tiny in
  let d2 = Generator.generate Profile.tiny in
  Alcotest.check Alcotest.string "same serialized design"
    (Css_netlist.Io.to_string d1) (Css_netlist.Io.to_string d2)

let test_seed_changes_design () =
  let d1 = Generator.generate Profile.tiny in
  let d2 = Generator.generate { Profile.tiny with Profile.seed = 43 } in
  checkb "different designs" true
    (Css_netlist.Io.to_string d1 <> Css_netlist.Io.to_string d2)

let test_well_formed () =
  let d = Generator.generate Profile.tiny in
  checkb "check passes" true (Design.check d = []);
  checki "ff count" Profile.tiny.Profile.num_ffs (Array.length (Design.ffs d));
  checki "lcb count" Profile.tiny.Profile.num_lcbs (Array.length (Design.lcbs d));
  checkb "clock root set" true (Design.clock_root d <> None)

let test_every_ff_driven_and_clocked () =
  let d = Generator.generate Profile.tiny in
  Array.iter
    (fun ff ->
      checkb "D pin driven" true (Design.pin_net d (Design.cell_pin d ff "D") <> None);
      checkb "clocked by an LCB" true
        (match Design.lcb_of_ff d ff with _ -> true | exception Not_found -> false))
    (Design.ffs d)

let test_acyclic_combinational () =
  (* Graph.build raises on combinational cycles; generated designs must
     always levelize *)
  let d = Generator.generate Profile.tiny in
  let g = Css_sta.Graph.build d in
  checkb "levelized" true (Css_sta.Graph.num_nodes g > 0)

let test_has_both_violation_kinds () =
  let d = Generator.generate Profile.tiny in
  let r = Evaluator.evaluate d in
  checkb "late violations" true (r.Evaluator.wns_late < 0.0);
  checkb "early violations" true (r.Evaluator.wns_early < 0.0);
  checkb "fanout within contest limit" true (r.Evaluator.constraint_errors = [])

let test_violations_are_sparse () =
  (* the point of the paper: only a small fraction of endpoints violate *)
  let d = Generator.generate (Profile.scale 0.5 (Option.get (Profile.by_name "sb18"))) in
  let t = Timer.build d in
  let total = Array.length (Css_sta.Graph.endpoints (Timer.graph t)) in
  let late = List.length (Timer.violated_endpoints t Timer.Late) in
  let early = List.length (Timer.violated_endpoints t Timer.Early) in
  checkb "late sparse (<25%)" true (float_of_int late < 0.25 *. float_of_int total);
  checkb "early sparse (<10%)" true (float_of_int early < 0.10 *. float_of_int total);
  checkb "but non-empty" true (late > 0 && early > 0)

let test_contains_sequential_cycle () =
  (* tiny has one reciprocal violating pair: both directions between the
     two cycle FFs must be negative sequential edges *)
  let d = Generator.generate Profile.tiny in
  let t = Timer.build d in
  let verts = Css_seqgraph.Vertex.of_design d in
  let full =
    Css_seqgraph.Extract.graph
      (Css_seqgraph.Extract.run ~engine:Css_seqgraph.Extract.Full t verts ~corner:Timer.Late)
  in
  let module Sg = Css_seqgraph.Seq_graph in
  let found = ref false in
  Sg.iter_edges full (fun e ->
      if Sg.weight full e < 0.0 then
        match Sg.find full ~src:(Sg.dst full e) ~dst:(Sg.src full e) with
        | Some back when Sg.weight full back < 0.0 -> found := true
        | Some _ | None -> ());
  checkb "reciprocal negative pair exists" true !found

let test_micro_design () =
  let d = Generator.micro () in
  checkb "well-formed" true (Design.check d = []);
  checki "three FFs" 3 (Array.length (Design.ffs d));
  checki "two LCBs" 2 (Array.length (Design.lcbs d));
  let r = Evaluator.evaluate d in
  checkb "setup violation" true (r.Evaluator.wns_late < -50.0);
  checkb "hold violation" true (r.Evaluator.wns_early < -20.0)

let test_conflict_pairs_present_in_sb7_profile () =
  let p = Option.get (Profile.by_name "sb7") in
  checkb "sb7 has conflict pairs" true (p.Profile.conflict_pairs > 0);
  List.iter
    (fun name ->
      let q = Option.get (Profile.by_name name) in
      checki (name ^ " has none") 0 q.Profile.conflict_pairs)
    [ "sb1"; "sb18" ]

let test_generation_speed_sanity () =
  (* generating tiny twice must be fast enough for property tests *)
  let _, dt =
    Css_util.Wall_clock.time (fun () ->
        ignore (Generator.generate Profile.tiny);
        ignore (Generator.generate Profile.tiny))
  in
  checkb "fast" true (dt < 5.0)

(* Calibration goldens: coarse ranges on the generated suite's initial
   timing state. They catch silent drift in the generator or technology
   constants that would invalidate EXPERIMENTS.md without failing any
   functional test. *)
let test_calibration_goldens () =
  let d = Generator.generate (Option.get (Profile.by_name "sb18")) in
  let t = Timer.build d in
  let in_range name lo hi v =
    checkb (Printf.sprintf "%s %.1f in [%.1f, %.1f]" name v lo hi) true (v >= lo && v <= hi)
  in
  in_range "late WNS" (-1500.0) (-300.0) (Timer.wns t Timer.Late);
  in_range "late TNS" (-80000.0) (-8000.0) (Timer.tns t Timer.Late);
  in_range "early WNS" (-90.0) (-10.0) (Timer.wns t Timer.Early);
  in_range "early TNS" (-2500.0) (-50.0) (Timer.tns t Timer.Early);
  let total = Array.length (Css_sta.Graph.endpoints (Timer.graph t)) in
  let late = List.length (Timer.violated_endpoints t Timer.Late) in
  let early = List.length (Timer.violated_endpoints t Timer.Early) in
  in_range "late violation fraction" 0.02 0.30 (float_of_int late /. float_of_int total);
  in_range "early violation fraction" 0.003 0.10 (float_of_int early /. float_of_int total)

let () =
  Alcotest.run "benchgen"
    [
      ( "profile",
        [
          Alcotest.test_case "presets" `Quick test_presets_named;
          Alcotest.test_case "tiny by name" `Quick test_tiny_by_name;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "paper variants" `Quick test_paper_variants;
          Alcotest.test_case "sb7 conflicts" `Quick test_conflict_pairs_present_in_sb7_profile;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_design;
          Alcotest.test_case "well-formed" `Quick test_well_formed;
          Alcotest.test_case "FFs driven and clocked" `Quick test_every_ff_driven_and_clocked;
          Alcotest.test_case "acyclic logic" `Quick test_acyclic_combinational;
          Alcotest.test_case "violations of both kinds" `Quick test_has_both_violation_kinds;
          Alcotest.test_case "violations sparse" `Quick test_violations_are_sparse;
          Alcotest.test_case "sequential cycle present" `Quick test_contains_sequential_cycle;
          Alcotest.test_case "micro" `Quick test_micro_design;
          Alcotest.test_case "speed sanity" `Quick test_generation_speed_sanity;
          Alcotest.test_case "calibration goldens (sb18)" `Quick test_calibration_goldens;
        ] );
    ]
