(* Tests for the IC-CSS+ and FPM baselines: they must solve the same
   problem (comparable slack results) while paying the extraction costs
   the paper attributes to them. *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Extract = Css_seqgraph.Extract
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Fpm = Css_baselines.Fpm
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)

let fresh () =
  let design = Generator.generate Profile.tiny in
  (design, Timer.build design)

(* ------------------------------------------------------------------ *)
(* IC-CSS+ *)

(* The Eq. (8) cushion is the round's worst negative slack: one endpoint
   scan per round, not one per vertex (which made every IC-CSS+ round
   O(V*E) before any cone was walked). *)
let test_iccss_one_scan_per_round () =
  List.iter
    (fun corner ->
      let design = Generator.generate Profile.tiny in
      let obs = Css_util.Obs.create () in
      let timer = Timer.build ~obs design in
      let scans = Css_util.Obs.counter obs "timer.endpoint_scans" in
      let verts = Css_seqgraph.Vertex.of_design design in
      let eng = Extract.run ~obs ~engine:Extract.Iccss timer verts ~corner in
      let rec go rounds =
        let before = Css_util.Obs.value scans in
        let fired = (Extract.round eng).Extract.added in
        Alcotest.(check int) "one endpoint scan per round" 1 (Css_util.Obs.value scans - before);
        if fired > 0 then go (rounds + 1) else rounds
      in
      checkb "some vertex fired" true (go 0 > 0))
    [ Timer.Late; Timer.Early ]

(* The same flow results as with the cushion recomputed per vertex:
   extracted edges and the sign-off report, bitwise. *)
let test_iccss_signoff_pinned () =
  let module Flow = Css_flow.Flow in
  let module Ev = Css_eval.Evaluator in
  List.iter
    (fun (name, p, edges, wns_l, tns_l, hpwl) ->
      let r = Flow.run ~algo:Flow.Iccss_plus (Generator.generate p) in
      let e = r.Flow.report in
      let bits what want got =
        checkb (Printf.sprintf "%s %s %h" name what got) true
          (Int64.bits_of_float want = Int64.bits_of_float got)
      in
      Alcotest.(check int) (name ^ " edges") edges r.Flow.extracted_edges;
      bits "wns_early" 0.0 e.Ev.wns_early;
      bits "tns_early" 0.0 e.Ev.tns_early;
      bits "wns_late" wns_l e.Ev.wns_late;
      bits "tns_late" tns_l e.Ev.tns_late;
      bits "hpwl" hpwl e.Ev.hpwl)
    [
      ("tiny", Profile.tiny, 41, -0x1.3e0ab68bbeeaep+8, -0x1.f31a0d9a232d4p+9, 0x1.1e4c496f6e78ep+16);
      ( "sb18x0.12",
        Profile.scale 0.12 (Option.get (Profile.by_name "sb18")),
        157,
        -0x1.c0af17b66ba6p+7,
        -0x1.04b36a31b31b9p+10,
        0x1.1567ee47a3ed7p+18 );
    ]

let test_iccss_plus_improves () =
  let _, timer = fresh () in
  let tns0 = Timer.tns timer Timer.Late in
  let result, _ = Engine.run ~engine:Extract.Iccss timer ~corner:Timer.Late in
  checkb "late TNS improved" true (Timer.tns timer Timer.Late > tns0);
  checkb "iterated" true (result.Scheduler.iterations >= 1)

let test_iccss_plus_matches_ours_quality () =
  (* Section III-E: IC-CSS+ solves the same NSO problem; the final slack
     state must essentially match the proposed algorithm's (Table I shows
     identical WNS/TNS columns). *)
  let d1, t1 = fresh () in
  ignore (Engine.run_ours t1 ~corner:Timer.Late);
  let d2, t2 = fresh () in
  ignore (Engine.run ~engine:Extract.Iccss t2 ~corner:Timer.Late);
  checkf 0.5 "late WNS agree" (Timer.wns t1 Timer.Late) (Timer.wns t2 Timer.Late);
  let tns1 = Timer.tns t1 Timer.Late and tns2 = Timer.tns t2 Timer.Late in
  checkb "late TNS within 2%" true
    (Float.abs (tns1 -. tns2) <= 0.02 *. Float.max 1.0 (Float.abs tns1));
  ignore (d1, d2)

let test_iccss_plus_extracts_more () =
  (* the headline claim: IC-CSS+ pays a much larger extraction bill *)
  let _, t1 = fresh () in
  let _, stats1 = Engine.run_ours t1 ~corner:Timer.Late in
  let _, t2 = fresh () in
  let _, stats2 = Engine.run ~engine:Extract.Iccss t2 ~corner:Timer.Late in
  checkb "IC-CSS+ extracts more edges" true
    (stats2.Extract.edges_extracted > stats1.Extract.edges_extracted);
  checkb "IC-CSS+ walks more gate-level nodes" true
    (stats2.Extract.cone_nodes > stats1.Extract.cone_nodes)

let test_iccss_plus_early () =
  let _, timer = fresh () in
  let tns0 = Timer.tns timer Timer.Early in
  ignore (Engine.run ~engine:Extract.Iccss timer ~corner:Timer.Early);
  checkb "early TNS improved" true (Timer.tns timer Timer.Early > tns0)

(* ------------------------------------------------------------------ *)
(* FPM *)

let test_fpm_improves_early () =
  let _, timer = fresh () in
  let tns0 = Timer.tns timer Timer.Early in
  let result, stats = Fpm.run timer in
  checkb "early TNS improved" true (Timer.tns timer Timer.Early > tns0);
  checkb "swept at least once" true (result.Fpm.sweeps >= 1);
  checkb "full extraction cost" true (stats.Extract.edges_extracted > 0)

let test_fpm_only_touches_early () =
  (* FPM is early-only: its skew must never make late WNS materially
     worse than the static cap promised *)
  let _, timer = fresh () in
  let late0 = Timer.wns timer Timer.Late in
  ignore (Fpm.run timer);
  checkb "late WNS not degraded beyond its positive margins" true
    (Timer.wns timer Timer.Late >= Float.min late0 0.0 -. 1e-6)

let test_fpm_extraction_dominates_ours () =
  (* the 27x story: FPM's one-shot full extraction walks far more of the
     gate-level graph than the iterative engine *)
  let _, t1 = fresh () in
  let _, stats1 = Engine.run_ours t1 ~corner:Timer.Early in
  let _, t2 = fresh () in
  let _, stats2 = Fpm.run t2 in
  checkb "FPM cone walk larger" true (stats2.Extract.cone_nodes > stats1.Extract.cone_nodes);
  checkb "FPM edge count larger" true
    (stats2.Extract.edges_extracted > stats1.Extract.edges_extracted)

let test_fpm_quality_not_better_than_ours () =
  (* Table I: Ours-Early dominates FPM on early WNS/TNS *)
  let _, t1 = fresh () in
  ignore (Engine.run_ours t1 ~corner:Timer.Early);
  let _, t2 = fresh () in
  ignore (Fpm.run t2);
  checkb "ours-early at least as good (TNS)" true
    (Timer.tns t1 Timer.Early >= Timer.tns t2 Timer.Early -. 1e-6)

let test_fpm_latencies_nonnegative () =
  let _, timer = fresh () in
  let result, _ = Fpm.run timer in
  Array.iter
    (fun l -> checkb "non-negative" true (l >= 0.0))
    result.Fpm.target_latency

let () =
  Alcotest.run "baselines"
    [
      ( "iccss+",
        [
          Alcotest.test_case "improves late" `Quick test_iccss_plus_improves;
          Alcotest.test_case "matches ours quality" `Quick test_iccss_plus_matches_ours_quality;
          Alcotest.test_case "extracts more" `Quick test_iccss_plus_extracts_more;
          Alcotest.test_case "early corner" `Quick test_iccss_plus_early;
          Alcotest.test_case "one cushion scan per round" `Quick test_iccss_one_scan_per_round;
          Alcotest.test_case "sign-off pinned" `Quick test_iccss_signoff_pinned;
        ] );
      ( "fpm",
        [
          Alcotest.test_case "improves early" `Quick test_fpm_improves_early;
          Alcotest.test_case "early-only safety" `Quick test_fpm_only_touches_early;
          Alcotest.test_case "extraction dominates ours" `Quick test_fpm_extraction_dominates_ours;
          Alcotest.test_case "not better than ours" `Quick test_fpm_quality_not_better_than_ours;
          Alcotest.test_case "latencies non-negative" `Quick test_fpm_latencies_nonnegative;
        ] );
    ]
