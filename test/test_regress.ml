(* Perf-regression gate tests: bench-array and stats-dump diffing,
   threshold gating in the worse direction only, the 0-means-not-
   measured convention, missing-record detection, and the --inflate
   synthetic-regression self-test CI relies on. *)

module Json = Css_util.Json
module Regress = Css_util.Regress

let checkb name expected got = Alcotest.(check bool) name expected got

let bench_record ?(design = "sb18") ?(engine = "full") ?(wall = 1000.0) ?(rss = 1_000_000)
    ?(cps = 50_000.0) ?(iterations = 86) ?extra () =
  Json.Obj
    ([
       ("design", Json.String design);
       ("engine", Json.String engine);
       ("wall_ms", Json.Float wall);
       ("peak_rss_bytes", Json.Int rss);
       ("cells_per_sec", Json.Float cps);
       ("iterations", Json.Int iterations);
     ]
    @ Option.value ~default:[] extra)

let find_row report ~key ~metric =
  List.find_opt
    (fun r -> r.Regress.r_key = key && r.Regress.r_metric = metric)
    report.Regress.rows

let test_bench_pass_and_fail () =
  let base = Json.List [ bench_record () ] in
  (* identical runs: gate ok *)
  let r = Regress.diff ~baseline:base ~current:base () in
  checkb "identical ok" true (Regress.ok r);
  checkb "has rows" true (r.Regress.rows <> []);
  (* +20% wall trips the 10% default threshold *)
  let cur = Json.List [ bench_record ~wall:1200.0 () ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "wall regression trips" false (Regress.ok r);
  (match Regress.regressions r with
  | [ row ] ->
    Alcotest.(check string) "metric" "wall_ms" row.Regress.r_metric;
    checkb "delta ~ +20%" true (Float.abs (row.Regress.r_delta_pct -. 20.0) < 0.01)
  | rows -> Alcotest.failf "expected 1 regression, got %d" (List.length rows));
  (* a 20% *improvement* must not trip anything *)
  let cur = Json.List [ bench_record ~wall:800.0 ~rss:900_000 () ] in
  checkb "improvement ok" true (Regress.ok (Regress.diff ~baseline:base ~current:cur ()));
  (* +6% RSS trips the tighter 5% threshold *)
  let cur = Json.List [ bench_record ~rss:1_060_000 () ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "rss regression trips" false (Regress.ok r);
  (* custom thresholds loosen the gate *)
  let th = { Regress.default_thresholds with Regress.max_rss_pct = 10.0 } in
  checkb "custom threshold passes" true
    (Regress.ok (Regress.diff ~thresholds:th ~baseline:base ~current:cur ()))

let test_throughput_informational () =
  (* cells_per_sec halving is worse (positive delta) but never gated *)
  let base = Json.List [ bench_record () ] in
  let cur = Json.List [ bench_record ~cps:25_000.0 () ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "throughput drop not gated" true (Regress.ok r);
  match find_row r ~key:"sb18/full" ~metric:"cells_per_sec" with
  | Some row ->
    (* delta is signed in the worse direction: -50% raw becomes +50% *)
    checkb "delta positive (worse)" true
      (Float.abs (row.Regress.r_delta_pct -. 50.0) < 0.01);
    checkb "no threshold" true (row.Regress.r_threshold_pct = None)
  | None -> Alcotest.fail "cells_per_sec row missing"

let test_iterations_gated () =
  (* the scheduler's iteration count is deterministic: one extra
     iteration is a behaviour change and fails the gate, fewer pass *)
  let base = Json.List [ bench_record () ] in
  let r = Regress.diff ~baseline:base ~current:(Json.List [ bench_record ~iterations:87 () ]) () in
  checkb "one more iteration trips" false (Regress.ok r);
  (match Regress.regressions r with
  | [ row ] -> Alcotest.(check string) "metric" "iterations" row.Regress.r_metric
  | rows -> Alcotest.failf "expected 1 regression, got %d" (List.length rows));
  checkb "fewer iterations ok" true
    (Regress.ok
       (Regress.diff ~baseline:base ~current:(Json.List [ bench_record ~iterations:48 () ]) ()))

let test_zero_means_not_measured () =
  (* rss 0 (non-Linux baseline) must yield an informational row, not a
     divide-by-zero or a spurious gate failure *)
  let base = Json.List [ bench_record ~rss:0 () ] in
  let cur = Json.List [ bench_record ~rss:123_456_789 () ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "zero baseline ok" true (Regress.ok r);
  match find_row r ~key:"sb18/full" ~metric:"peak_rss_bytes" with
  | Some row -> checkb "informational" true (row.Regress.r_threshold_pct = None)
  | None -> Alcotest.fail "rss row missing"

let test_new_field_informational () =
  (* a metric the baseline predates (cache_hit_ratio landed after the
     baseline was frozen) must surface as an ungated informational row,
     never a failure *)
  let base = Json.List [ bench_record () ] in
  let cur =
    Json.List [ bench_record ~extra:[ ("cache_hit_ratio", Json.Float 0.97) ] () ]
  in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "new field ok" true (Regress.ok r);
  match find_row r ~key:"sb18/full" ~metric:"cache_hit_ratio" with
  | Some row ->
    checkb "informational" true (row.Regress.r_threshold_pct = None);
    checkb "not regressed" false row.Regress.r_regressed;
    checkb "current value carried" true (Float.abs (row.Regress.r_cur -. 0.97) < 1e-9)
  | None -> Alcotest.fail "cache_hit_ratio row missing"

let test_missing_record_fails_gate () =
  let base =
    Json.List [ bench_record ~engine:"full" (); bench_record ~engine:"iterative-essential" () ]
  in
  let cur = Json.List [ bench_record ~engine:"full" () ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "missing fails" false (Regress.ok r);
  Alcotest.(check (list string)) "missing key" [ "sb18/iterative-essential" ] r.Regress.missing;
  (* extra current-only records are fine: baselines set the floor *)
  let r = Regress.diff ~baseline:cur ~current:base () in
  checkb "extra current ok" true (Regress.ok r)

let test_histogram_p95_gate () =
  let histo p95 =
    [
      ( "histograms",
        Json.Obj
          [
            ("sched.extract_s", Json.Obj [ ("count", Json.Int 10); ("p95", Json.Float p95) ]);
          ] );
    ]
  in
  let base = Json.List [ bench_record ~extra:(histo 0.1) () ] in
  let cur_ok = Json.List [ bench_record ~extra:(histo 0.11) () ] in
  let cur_bad = Json.List [ bench_record ~extra:(histo 0.2) () ] in
  checkb "p95 +10% ok" true (Regress.ok (Regress.diff ~baseline:base ~current:cur_ok ()));
  let r = Regress.diff ~baseline:base ~current:cur_bad () in
  checkb "p95 +100% trips" false (Regress.ok r);
  match Regress.regressions r with
  | [ row ] -> Alcotest.(check string) "metric" "sched.extract_s.p95" row.Regress.r_metric
  | rows -> Alcotest.failf "expected 1 regression, got %d" (List.length rows)

let stats_dump spans =
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
    ]

let test_stats_mode () =
  let base = stats_dump [ ("early-css", 1.0); ("late-css", 2.0) ] in
  let r = Regress.diff ~baseline:base ~current:base () in
  checkb "identical stats ok" true (Regress.ok r);
  let cur = stats_dump [ ("early-css", 1.25); ("late-css", 2.0) ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "span +25% trips" false (Regress.ok r);
  (* a span missing from the current run fails the gate too *)
  let cur = stats_dump [ ("early-css", 1.0) ] in
  let r = Regress.diff ~baseline:base ~current:cur () in
  checkb "missing span fails" false (Regress.ok r);
  checkb "named in missing" true (List.mem "span late-css" r.Regress.missing);
  (* shape mismatch is a loud input error, not a silent pass *)
  checkb "shape mismatch raises" true
    (match Regress.diff ~baseline:base ~current:(Json.List []) () with
    | exception Failure _ -> true
    | _ -> false)

let test_inflate_self_test () =
  (* CI's synthetic-regression check: a baseline diffed against its own
     inflated copy must fail the gate, in both input shapes *)
  let bench = Json.List [ bench_record () ] in
  let r = Regress.diff ~baseline:bench ~current:(Regress.inflate ~pct:20.0 bench) () in
  checkb "inflated bench fails" false (Regress.ok r);
  checkb "wall regressed" true
    (List.exists (fun row -> row.Regress.r_metric = "wall_ms") (Regress.regressions r));
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
          Alcotest.test_case "throughput informational" `Quick test_throughput_informational;
          Alcotest.test_case "iterations gated" `Quick test_iterations_gated;
          Alcotest.test_case "zero means not measured" `Quick test_zero_means_not_measured;
          Alcotest.test_case "new field informational" `Quick test_new_field_informational;
          Alcotest.test_case "missing record fails gate" `Quick test_missing_record_fails_gate;
          Alcotest.test_case "histogram p95 gate" `Quick test_histogram_p95_gate;
          Alcotest.test_case "stats mode" `Quick test_stats_mode;
          Alcotest.test_case "inflate self-test" `Quick test_inflate_self_test;
        ] );
    ]
