(* Tests for the independent evaluator. *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Evaluator = Css_eval.Evaluator
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Point = Css_geometry.Point
module Library = Css_liberty.Library
module Io = Css_netlist.Io
module Mutator = Css_benchgen.Mutator
module Rng = Css_util.Rng
module Obs = Css_util.Obs
module Oracles = Css_oracle.Oracles

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* exact float equality: a zero tolerance *)
let checkx = checkf 0.0

let test_matches_fresh_timer () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let r = Evaluator.evaluate design in
  checkx "early wns" (Timer.wns timer Timer.Early) r.Evaluator.wns_early;
  checkx "late wns" (Timer.wns timer Timer.Late) r.Evaluator.wns_late;
  checkx "early tns" (Timer.tns timer Timer.Early) r.Evaluator.tns_early;
  checkx "late tns" (Timer.tns timer Timer.Late) r.Evaluator.tns_late;
  checkx "hpwl" (Design.total_hpwl design) r.Evaluator.hpwl;
  checkb "no constraint errors on a fresh design" true (r.Evaluator.constraint_errors = [])

(* Regression: the stashed scheduled latencies must come back even when
   scoring raises, here on a grafted combinational cycle. *)
let test_evaluate_restores_latencies_on_failure () =
  let text = Io.to_string (Generator.generate Profile.tiny) in
  let text, outcome = Mutator.corrupt Mutator.Comb_loop (Rng.create 3) text in
  checkb "cycle grafted" true (outcome = `Applied);
  let design =
    match Io.of_string ~policy:Io.Recover ~library:Library.default text with
    | Ok (d, _) -> d
    | Error _ -> Alcotest.fail "corrupted design did not parse"
  in
  let ff = (Design.ffs design).(0) in
  Design.set_scheduled_latency design ff 42.0;
  (match Evaluator.evaluate design with
  | _ -> Alcotest.fail "evaluate accepted a combinational cycle"
  | exception Failure _ -> ());
  checkx "scheduled latency restored" 42.0 (Design.scheduled_latency design ff)

(* {2 Scoring on a live timer} *)

let same_report ~label expected got =
  match Oracles.report_diffs ~label expected got with
  | [] -> ()
  | diffs -> Alcotest.fail (String.concat "\n" diffs)

let counter obs name = Obs.value (Obs.counter obs name)

(* every node's arrival and required time at both corners, and its
   slew, as bits *)
let node_state timer =
  Array.init
    (Css_sta.Graph.num_nodes (Timer.graph timer))
    (fun n ->
      List.map Int64.bits_of_float
        [
          Timer.arrival timer Timer.Early n;
          Timer.arrival timer Timer.Late n;
          Timer.required timer Timer.Early n;
          Timer.required timer Timer.Late n;
          Timer.slew timer n;
        ])

(* Each edit kind the flow makes between two checkpoints, and no edit
   at all, pushed through the live timer's own update paths and scored
   on it, compared to a fresh evaluation. *)
let test_scorer_tracks_edits () =
  let design = Generator.generate Profile.tiny in
  let obs = Obs.create () in
  let timer = Timer.build ~obs design in
  let check label = same_report ~label (Evaluator.evaluate design) (Evaluator.score timer) in
  check "first score";
  let updates = counter obs "timer.incremental_updates" in
  check "unchanged design";
  checki "no held latency: no timer work" updates (counter obs "timer.incremental_updates");
  let comb = ref (-1) in
  Design.iter_cells design (fun c ->
      if !comb < 0 && (Design.cell_master design c).Css_liberty.Cell.name = "INV_X1" then
        comb := c);
  checkb "an INV_X1 to edit" true (!comb >= 0);
  let ff = (Design.ffs design).(0) in
  let nudge c =
    let p = Design.cell_pos design c in
    Design.move_cell design c (Point.make (p.Point.x +. 37.5) (p.Point.y -. 12.25))
  in
  nudge !comb;
  nudge ff;
  Timer.update_moved_cells timer [ !comb; ff ];
  check "move_cell";
  let lcbs = Design.lcbs design in
  let other = Array.find_opt (fun l -> l <> Design.lcb_of_ff design ff) lcbs in
  Design.reconnect_ff_to_lcb design ~ff ~lcb:(Option.get other);
  Timer.update_latencies timer [ ff ];
  check "reconnect_ff_to_lcb";
  nudge lcbs.(0);
  Timer.update_latencies timer (Design.ffs_of_lcb design lcbs.(0));
  check "LCB moved";
  Timer.resize_cell timer !comb "INV_X4";
  check "swap_master";
  (* CTS-style growth: a new LCB on the clock root, hosting one FF *)
  let root_net = Design.pin_net_id design (Design.port_pin design (Design.clock_root_id design)) in
  let lcb =
    Design.add_cell design ~name:"extra_lcb" ~master:"LCB" ~pos:(Design.cell_pos design ff)
  in
  Design.net_add_sink design root_net (Design.cell_pin design lcb "CKI");
  ignore
    (Design.add_net design ~name:"extra_ck" ~driver:(Design.cell_pin design lcb "CKO") ~sinks:[]);
  Design.reconnect_ff_to_lcb design ~ff ~lcb;
  Timer.update_latencies timer [ ff ];
  check "add_cell/add_net";
  (* physical-only scoring: a scheduled latency is masked, then kept *)
  Design.set_scheduled_latency design ff 35.0;
  Timer.update_latencies timer [ ff ];
  let before = node_state timer in
  check "set_scheduled_latency (masked)";
  checkx "scheduled latency kept" 35.0 (Design.scheduled_latency design ff);
  checkb "node state restored" true (before = node_state timer)

(* The mask round trip on its own: several flip-flops hold scheduled
   latencies, both signs, as a phase leaves them before realization. *)
let test_score_masks_held_latencies () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ffs = Design.ffs design in
  let held = [ (ffs.(0), 12.5); (ffs.(1), -7.25); (ffs.(Array.length ffs - 1), 40.0) ] in
  List.iter (fun (ff, l) -> Design.set_scheduled_latency design ff l) held;
  Timer.update_latencies timer (List.map fst held);
  let before = node_state timer in
  let live_wns = Timer.wns timer Timer.Late in
  same_report ~label:"held latencies" (Evaluator.evaluate design) (Evaluator.score timer);
  List.iter
    (fun (ff, l) -> checkx "scheduled latency kept" l (Design.scheduled_latency design ff))
    held;
  checkb "node state restored" true (before = node_state timer);
  checkx "live view unchanged" live_wns (Timer.wns timer Timer.Late)

let test_ignores_scheduled_latencies_by_default () =
  let design = Generator.micro () in
  let r0 = Evaluator.evaluate design in
  let ff = (Design.ffs design).(0) in
  Design.set_scheduled_latency design ff 500.0;
  let r1 = Evaluator.evaluate design in
  checkf 1e-9 "physical-only scoring unchanged" r0.Evaluator.tns_late r1.Evaluator.tns_late;
  (* and the stashed latency is restored afterwards *)
  checkf 1e-9 "latency restored" 500.0 (Design.scheduled_latency design ff)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The budget is Design.max_displacement, Manhattan from the original
   position: a move of exactly the budget passes, one DBU more fails. *)
let test_detects_displacement_violation () =
  let design = Generator.micro () in
  let victim = ref (-1) in
  Design.iter_cells design (fun c ->
      if !victim < 0 && not (Design.is_ff design c || Design.is_lcb design c) then victim := c);
  let o = Design.cell_orig_pos design !victim in
  let displaced dx =
    Design.move_cell design !victim (Point.make (o.Point.x +. dx) o.Point.y);
    List.exists (has_prefix "cell ") (Evaluator.evaluate design).Evaluator.constraint_errors
  in
  checkb "at the budget: no violation" false (displaced Design.max_displacement);
  checkb "past the budget: violation reported" true (displaced (Design.max_displacement +. 1.0))

(* The limit is Design.lcb_fanout_limit sinks per LCB: filling one LCB to
   the limit passes, one flip-flop more fails. *)
let test_detects_fanout_violation () =
  let limit = Design.lcb_fanout_limit in
  let design = Generator.generate { Profile.tiny with Profile.num_ffs = limit + 10 } in
  let lcb = (Design.lcbs design).(0) in
  let over () =
    List.exists (has_prefix "LCB ") (Evaluator.evaluate design).Evaluator.constraint_errors
  in
  let ffs = Design.ffs design in
  let i = ref 0 in
  while Design.lcb_fanout design lcb < limit do
    let ff = ffs.(!i) in
    if Design.lcb_of_ff design ff <> lcb then Design.reconnect_ff_to_lcb design ~ff ~lcb;
    incr i
  done;
  checkb "at the limit: no violation" false (over ());
  while Design.lcb_of_ff design ffs.(!i) = lcb do
    incr i
  done;
  Design.reconnect_ff_to_lcb design ~ff:ffs.(!i) ~lcb;
  checkb "past the limit: violation reported" true (over ())

(* One design that trips every audit and [Design.check] message the
   public mutators can produce ("no driver" and "driver pin points to
   another net" cannot be built through them). *)
let audit_design () =
  let limit = Design.lcb_fanout_limit in
  let d = Generator.generate { Profile.tiny with Profile.num_ffs = limit + 10 } in
  let pin = Design.cell_pin d in
  let ffs = Design.ffs d and lcb0 = (Design.lcbs d).(0) in
  (* one LCB past its fanout limit *)
  Array.iteri
    (fun i ff ->
      if i <= limit && Design.lcb_of_ff d ff <> lcb0 then Design.reconnect_ff_to_lcb d ~ff ~lcb:lcb0)
    ffs;
  (* a displaced cell *)
  let comb = ref (-1) in
  Design.iter_cells d (fun c ->
      if !comb < 0 && not (Design.is_ff d c || Design.is_lcb d c) then comb := c);
  let o = Design.cell_orig_pos d !comb in
  Design.move_cell d !comb (Point.make (o.Point.x +. 250.0) (o.Point.y -. 200.0));
  (* latencies below and above their windows *)
  Design.set_latency_bounds d ffs.(0) ~lo:1000.0 ~hi:2000.0;
  Design.set_latency_bounds d ffs.(1) ~lo:0.0 ~hi:0.5;
  let at = Point.make in
  (* a flip-flop with no clock, one clocked straight from the root *)
  ignore (Design.add_cell d ~name:"ff_noclk" ~master:"DFF" ~pos:(at 10. 10.));
  let ff_root = Design.add_cell d ~name:"ff_root" ~master:"DFF" ~pos:(at 20. 10.) in
  let root_net = Design.pin_net_id d (pin lcb0 "CKI") in
  Design.net_add_sink d root_net (pin ff_root "CK");
  (* an LCB with an unconnected clock input *)
  ignore (Design.add_cell d ~name:"lcb_nocki" ~master:"LCB" ~pos:(at 30. 10.));
  (* a sink that is a signal source *)
  let inv_a = Design.add_cell d ~name:"inv_a" ~master:"INV_X1" ~pos:(at 40. 10.) in
  let inv_b = Design.add_cell d ~name:"inv_b" ~master:"INV_X1" ~pos:(at 50. 10.) in
  ignore (Design.add_net d ~name:"n_src_sink" ~driver:(pin inv_a "Z") ~sinks:[ pin inv_b "Z" ]);
  (* a sink whose pin points to another net: listed twice, moved once *)
  let lcb_a = Design.add_cell d ~name:"lcb_a" ~master:"LCB" ~pos:(at 60. 10.) in
  let lcb_b = Design.add_cell d ~name:"lcb_b" ~master:"LCB" ~pos:(at 70. 10.) in
  Design.net_add_sink d root_net (pin lcb_a "CKI");
  Design.net_add_sink d root_net (pin lcb_b "CKI");
  let ff_dup = Design.add_cell d ~name:"ff_dup" ~master:"DFF" ~pos:(at 80. 10.) in
  ignore
    (Design.add_net d ~name:"n_dup" ~driver:(pin lcb_a "CKO")
       ~sinks:[ pin ff_dup "CK"; pin ff_dup "CK" ]);
  ignore (Design.add_net d ~name:"n_b" ~driver:(pin lcb_b "CKO") ~sinks:[]);
  (* measured first, so n_dup's verdict has to follow the reconnect *)
  ignore (Design.check d);
  Design.reconnect_ff_to_lcb d ~ff:ff_dup ~lcb:lcb_b;
  d

(* The audit's strings, their order and its tolerances are the
   contest's report format: pinned in full, for a fresh evaluation and
   for a score read off a live timer. *)
let test_audit_strings () =
  let expected =
    [
      "LCB lcb0 fanout 54 exceeds limit 50";
      "cell g1 displaced 450.0 DBU, budget 400.0";
      "flip-flop ff0 latency 98.99 outside its [1000.00, 2000.00] window";
      "flip-flop ff1 latency 92.43 outside its [0.00, 0.50] window";
      "netlist: net n_src_sink: sink pin is a signal source";
      "netlist: net n_dup: sink pin points to another net";
      "netlist: flip-flop ff_noclk has no LCB clock source";
      "netlist: flip-flop ff_root has no LCB clock source";
      "netlist: LCB lcb_nocki has an unconnected clock input";
    ]
  in
  let d = audit_design () in
  let strings = Alcotest.(check (list string)) in
  strings "evaluate" expected (Evaluator.evaluate d).Evaluator.constraint_errors;
  strings "score on a live timer" expected (Evaluator.score (Timer.build d)).Evaluator.constraint_errors

let test_violation_counts () =
  let design = Generator.micro () in
  let r = Evaluator.evaluate design in
  checki "late violations" 1 r.Evaluator.num_late_violations;
  checki "early violations" 1 r.Evaluator.num_early_violations;
  checkb "late wns negative" true (r.Evaluator.wns_late < 0.0)

let test_summary_renders () =
  let design = Generator.micro () in
  let s = Evaluator.summary (Evaluator.evaluate design) in
  checkb "non-empty" true (String.length s > 20)

(* ------------------------------------------------------------------ *)
(* Report / histogram *)

module Report = Css_eval.Report

let test_histogram_bucketing () =
  let h = Report.Histogram.of_values ~edges:[ 0.0; 10.0 ] [ -5.0; 3.0; 7.0; 15.0; 10.0 ] in
  (match Report.Histogram.counts h with
  | [ (_, _, a); (_, _, b); (_, _, c) ] ->
    checki "below 0" 1 a;
    checki "[0,10)" 2 b;
    checki "10 and above" 2 c
  | _ -> Alcotest.fail "expected 3 buckets");
  checkb "renders" true (String.length (Report.Histogram.render h) > 0)

let test_histogram_total_preserved () =
  let values = List.init 100 (fun i -> float_of_int (i - 50)) in
  let h = Report.Histogram.of_values values in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Report.Histogram.counts h) in
  checki "no value lost" 100 total

let test_timing_summary () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let s = Report.timing_summary timer in
  checkb "mentions both corners" true
    (String.length s > 0
    &&
    let has sub =
      let n = String.length sub and h = String.length s in
      let rec loop i = i + n <= h && (String.sub s i n = sub || loop (i + 1)) in
      loop 0
    in
    has "late (setup)" && has "early (hold)" && has "WNS")

let test_worst_paths_report () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let s = Report.worst_paths_report timer Timer.Late ~endpoints:1 ~paths_per_endpoint:1 in
  checkb "one path printed" true (String.length s > 0);
  checkb "mentions a pin" true
    (let has sub =
       let n = String.length sub and h = String.length s in
       let rec loop i = i + n <= h && (String.sub s i n = sub || loop (i + 1)) in
       loop 0
     in
     has "ffa/Q" || has "ffb/D")

let () =
  Alcotest.run "eval"
    [
      ( "evaluator",
        [
          Alcotest.test_case "matches fresh timer" `Quick test_matches_fresh_timer;
          Alcotest.test_case "latencies restored when scoring raises" `Quick
            test_evaluate_restores_latencies_on_failure;
          Alcotest.test_case "ignores scheduled latencies" `Quick
            test_ignores_scheduled_latencies_by_default;
          Alcotest.test_case "displacement violation" `Quick test_detects_displacement_violation;
          Alcotest.test_case "fanout violation" `Quick test_detects_fanout_violation;
          Alcotest.test_case "audit strings pinned" `Quick test_audit_strings;
          Alcotest.test_case "violation counts (micro)" `Quick test_violation_counts;
          Alcotest.test_case "summary renders" `Quick test_summary_renders;
        ] );
      ( "scorer",
        [
          Alcotest.test_case "tracks every edit kind" `Quick test_scorer_tracks_edits;
          Alcotest.test_case "masks held latencies and puts them back" `Quick
            test_score_masks_held_latencies;
        ] );
      ( "report",
        [
          Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "histogram totals" `Quick test_histogram_total_preserved;
          Alcotest.test_case "timing summary" `Quick test_timing_summary;
          Alcotest.test_case "worst paths report" `Quick test_worst_paths_report;
        ] );
    ]
