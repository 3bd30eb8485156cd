(* Perf-regression gate tests: perfbench-line and stats-dump diffing,
   bound gating in the worse direction only, exact gating of per-layer
   counts and ratios, the 0-means-not-measured convention, missing-
   metric detection, and the --inflate synthetic-regression self-test
   CI relies on. *)

module Json = Css_util.Json
module Regress = Css_util.Regress

let checkb name expected got = Alcotest.(check bool) name expected got

(* A slice of BENCHMARK.json, in its format *)
let benchmark =
  let m ?bound name unit better =
    Json.Obj
      ([ ("name", Json.String name); ("unit", Json.String unit); ("better", Json.String better) ]
      @ match bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])
  in
  Json.Obj
    [
      ( "end_to_end",
        Json.List
          [
            m "run_s" "s" "lower" ~bound:0.25;
            m "peak_rss_mb" "MB" "lower" ~bound:0.15;
            m "late_tns_gain_pct" "%" "higher" ~bound:0.2;
          ] );
      ( "per_layer",
        Json.List
          [
            m "sched.self_s" "s" "lower";
            m "sched.iterations" "count" "lower";
            m "opt.reconnected" "count" "higher";
            m "cache.hit_ratio" "ratio" "higher";
            m "gc.major_collections" "count" "lower";
          ] );
    ]

let line ?(correct = true) ?(failed = 0) metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int 16);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", v); ("unit", Json.String u) ]))
             metrics) );
    ]

let e2e ?(run = 1.0) ?(rss = 150.0) ?(gain = 77.0) () =
  [ ("run_s", Json.Float run, "s"); ("peak_rss_mb", Json.Float rss, "MB");
    ("late_tns_gain_pct", Json.Float gain, "%") ]

let layers ?(self = 0.3) ?(iters = 360) ?(reconnected = 879) ?(hit = 0.816) ?(majors = 19) () =
  [ ("sched.self_s", Json.Float self, "s"); ("sched.iterations", Json.Int iters, "count");
    ("opt.reconnected", Json.Int reconnected, "count"); ("cache.hit_ratio", Json.Float hit, "ratio");
    ("gc.major_collections", Json.Int majors, "count") ]

let diff baseline current = Regress.diff ~benchmark ~baseline ~current ()

let find_row report ~metric =
  List.find_opt (fun r -> r.Regress.r_metric = metric) report.Regress.rows

let regressed_metrics r = List.map (fun row -> row.Regress.r_metric) (Regress.regressions r)

let test_bench_pass_and_fail () =
  let base = line (e2e ()) in
  (* identical runs: gate ok *)
  let r = diff base base in
  checkb "identical ok" true (Regress.ok r);
  checkb "has rows" true (r.Regress.rows <> []);
  (* +20% run_s is inside its 25% bound, +30% is not *)
  checkb "run_s +20% ok" true (Regress.ok (diff base (line (e2e ~run:1.2 ()))));
  let r = diff base (line (e2e ~run:1.3 ())) in
  checkb "run_s +30% trips" false (Regress.ok r);
  (match Regress.regressions r with
  | [ row ] ->
    Alcotest.(check string) "metric" "run_s" row.Regress.r_metric;
    checkb "delta ~ +30%" true (Float.abs (row.Regress.r_delta_pct -. 30.0) < 0.01)
  | rows -> Alcotest.failf "expected 1 regression, got %d" (List.length rows));
  (* an improvement never trips *)
  checkb "improvement ok" true (Regress.ok (diff base (line (e2e ~run:0.5 ~rss:100.0 ()))));
  (* +16% RSS trips the tighter 15% bound *)
  checkb "rss +16% trips" false (Regress.ok (diff base (line (e2e ~rss:174.0 ()))));
  (* a higher-is-better metric regresses when it falls: -25% gain vs 20% *)
  let r = diff base (line (e2e ~gain:57.75 ())) in
  Alcotest.(check (list string)) "gain drop" [ "late_tns_gain_pct" ] (regressed_metrics r);
  checkb "gain rise ok" true (Regress.ok (diff base (line (e2e ~gain:90.0 ()))))

let test_correct_and_failed_gated () =
  let base = line (e2e ()) in
  let r = diff base (line ~correct:false (e2e ())) in
  Alcotest.(check (list string)) "correct false" [ "correct" ] (regressed_metrics r);
  let r = diff base (line ~failed:1 (e2e ())) in
  Alcotest.(check (list string)) "a failed operation" [ "failed" ] (regressed_metrics r);
  (* a broken baseline does not excuse a broken current line *)
  let bad = line ~correct:false ~failed:2 (e2e ()) in
  checkb "bad vs bad fails" false (Regress.ok (diff bad bad));
  checkb "good vs bad baseline ok" true (Regress.ok (diff bad base))

let test_layer_times_informational () =
  (* per-layer times are raw wall seconds: shown, never gated *)
  let base = line (layers ()) in
  let r = diff base (line (layers ~self:0.9 ())) in
  checkb "layer time tripling not gated" true (Regress.ok r);
  (match find_row r ~metric:"sched.self_s" with
  | Some row ->
    checkb "delta positive (worse)" true (Float.abs (row.Regress.r_delta_pct -. 200.0) < 0.01);
    checkb "no threshold" true (row.Regress.r_threshold_pct = None)
  | None -> Alcotest.fail "sched.self_s row missing");
  (* GC counts follow the collector's pacing: informational too *)
  checkb "gc count not gated" true (Regress.ok (diff base (line (layers ~majors:25 ()))))

let test_iterations_gated () =
  (* counts repeat exactly for a seed: one extra scheduler iteration is
     a behaviour change and fails the gate, fewer pass *)
  let base = line (layers ()) in
  let r = diff base (line (layers ~iters:361 ())) in
  Alcotest.(check (list string)) "one more iteration trips" [ "sched.iterations" ]
    (regressed_metrics r);
  checkb "fewer iterations ok" true (Regress.ok (diff base (line (layers ~iters:48 ()))));
  (* direction comes from BENCHMARK.json: fewer reconnections is worse *)
  let r = diff base (line (layers ~reconnected:878 ())) in
  Alcotest.(check (list string)) "fewer reconnections" [ "opt.reconnected" ] (regressed_metrics r);
  checkb "more reconnections ok" true (Regress.ok (diff base (line (layers ~reconnected:900 ()))));
  (* ratios of counts are exact too: a lower cache hit ratio fails *)
  let r = diff base (line (layers ~hit:0.815 ())) in
  Alcotest.(check (list string)) "hit ratio drop" [ "cache.hit_ratio" ] (regressed_metrics r)

let test_zero_means_not_measured () =
  (* a zero baseline (RSS on a platform without procfs, an unmeasured
     span) must yield an informational row, not a divide-by-zero or a
     spurious gate failure *)
  let base = line (e2e ~rss:0.0 ()) in
  let r = diff base (line (e2e ~rss:123.0 ())) in
  checkb "zero baseline ok" true (Regress.ok r);
  (match find_row r ~metric:"peak_rss_mb" with
  | Some row -> checkb "informational" true (row.Regress.r_threshold_pct = None)
  | None -> Alcotest.fail "rss row missing");
  (* a layer the workload does not measure (0 on both sides) is left out *)
  let base = line (layers ~self:0.0 ()) in
  checkb "absent layer left out" true (find_row (diff base base) ~metric:"sched.self_s" = None)

let test_new_field_informational () =
  (* a metric the baseline predates must surface as an ungated
     informational row, never a failure *)
  let base = line (e2e ()) in
  let cur = line (e2e () @ [ ("sched.iterations", Json.Int 40, "count") ]) in
  let r = diff base cur in
  checkb "new field ok" true (Regress.ok r);
  match find_row r ~metric:"sched.iterations" with
  | Some row ->
    checkb "informational" true (row.Regress.r_threshold_pct = None);
    checkb "not regressed" false row.Regress.r_regressed;
    checkb "current value carried" true (row.Regress.r_cur = 40.0)
  | None -> Alcotest.fail "new metric row missing"

let test_missing_record_fails_gate () =
  let base = line (e2e () @ layers ()) in
  let cur = line (e2e ()) in
  let r = diff base cur in
  checkb "missing fails" false (Regress.ok r);
  checkb "missing metric named" true (List.mem "sched.iterations" r.Regress.missing);
  (* extra current-only metrics are fine: baselines set the floor *)
  checkb "extra current ok" true (Regress.ok (diff cur base));
  (* perfbench lines cannot be judged without the metric table *)
  checkb "no BENCHMARK.json raises" true
    (match Regress.diff ~baseline:base ~current:base () with
    | exception Failure _ -> true
    | _ -> false)

let stats_dump ?(histo = []) spans =
  Json.Obj
    [
      ("counters", Json.Obj [ ("flow.persisted", Json.Int 3) ]);
      ( "spans",
        Json.List
          (List.map
             (fun (p, s) ->
               Json.Obj
                 [ ("path", Json.String p); ("total_s", Json.Float s); ("count", Json.Int 1) ])
             spans) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, p95) -> (n, Json.Obj [ ("count", Json.Int 10); ("p95", Json.Float p95) ]))
             histo) );
    ]

let test_histogram_p95_gate () =
  let with_p95 p = stats_dump ~histo:[ ("service.seconds.run", p) ] [] in
  let base = with_p95 0.1 in
  checkb "p95 +10% ok" true (Regress.ok (Regress.diff ~baseline:base ~current:(with_p95 0.11) ()));
  let r = Regress.diff ~baseline:base ~current:(with_p95 0.2) () in
  checkb "p95 +100% trips" false (Regress.ok r);
  match Regress.regressions r with
  | [ row ] -> Alcotest.(check string) "metric" "service.seconds.run.p95" row.Regress.r_metric
  | rows -> Alcotest.failf "expected 1 regression, got %d" (List.length rows)

let test_stats_mode () =
  let base = stats_dump [ ("early-css", 1.0); ("late-css", 2.0) ] in
  let r = Regress.diff ~baseline:base ~current:base () in
  checkb "identical stats ok" true (Regress.ok r);
  let cur = stats_dump [ ("early-css", 1.25); ("late-css", 2.0) ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "span +25% trips" false (Regress.ok r);
  (* a zero span total is not measured: informational *)
  let zero = stats_dump [ ("early-css", 0.0); ("late-css", 2.0) ] in
  checkb "zero span ok" true (Regress.ok (Regress.diff ~baseline:zero ~current:cur ()));
  (* a span missing from the current run fails the gate too *)
  let cur = stats_dump [ ("early-css", 1.0) ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "missing span fails" false (Regress.ok r);
  checkb "named in missing" true (List.mem "span late-css" r.Regress.missing);
  (* shape mismatch is a loud input error, not a silent pass *)
  checkb "shape mismatch raises" true
    (match Regress.diff ~benchmark ~baseline:base ~current:(line (e2e ())) () with
    | exception Failure _ -> true
    | _ -> false);
  checkb "array raises" true
    (match Regress.diff ~baseline:base ~current:(Json.List []) () with
    | exception Failure _ -> true
    | _ -> false)

let test_inflate_self_test () =
  (* CI's synthetic-regression check: a baseline diffed against its own
     inflated copy must fail the gate, in every input shape *)
  let untraced = line (e2e ()) in
  let r = diff untraced (Regress.inflate ~pct:20.0 untraced) in
  (* +20% times stay inside the 25% bound; RSS does not *)
  Alcotest.(check (list string)) "untraced line: rss" [ "peak_rss_mb" ] (regressed_metrics r);
  let traced = line (layers ()) in
  let r = diff traced (Regress.inflate ~pct:20.0 traced) in
  Alcotest.(check (list string)) "traced line: counts" [ "sched.iterations" ]
    (regressed_metrics r);
  (match find_row r ~metric:"cache.hit_ratio" with
  | Some row -> checkb "ratio untouched" true (row.Regress.r_cur = 0.816)
  | None -> Alcotest.fail "ratio row missing");
  let stats = stats_dump [ ("early-css", 1.0) ] in
  let r = Regress.diff ~baseline:stats ~current:(Regress.inflate ~pct:20.0 stats) () in
  checkb "inflated stats fails" false (Regress.ok r);
  (* render always ends in a verdict line *)
  let txt = Regress.render r in
  checkb "render has verdict" true
    (String.length txt > 0
    && (let lines = String.split_on_char '\n' (String.trim txt) in
        match List.rev lines with
        | last :: _ -> String.length last >= 5 && String.sub last 0 5 = "gate:"
        | [] -> false))

let () =
  Alcotest.run "regress"
    [
      ( "regress",
        [
          Alcotest.test_case "bench pass and fail" `Quick test_bench_pass_and_fail;
          Alcotest.test_case "correct and failed gated" `Quick test_correct_and_failed_gated;
          Alcotest.test_case "layer times informational" `Quick test_layer_times_informational;
          Alcotest.test_case "iterations gated" `Quick test_iterations_gated;
          Alcotest.test_case "zero means not measured" `Quick test_zero_means_not_measured;
          Alcotest.test_case "new field informational" `Quick test_new_field_informational;
          Alcotest.test_case "missing record fails gate" `Quick test_missing_record_fails_gate;
          Alcotest.test_case "histogram p95 gate" `Quick test_histogram_p95_gate;
          Alcotest.test_case "stats mode" `Quick test_stats_mode;
          Alcotest.test_case "inflate self-test" `Quick test_inflate_self_test;
        ] );
    ]
