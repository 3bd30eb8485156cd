(* Log-bucketed histogram unit tests: bucket layout, quantile accuracy,
   the extraction engine's cone-size histogram repeating across runs,
   JSON round-trip, and the allocation-free observe path. *)

module Histo = Css_util.Histo
module Obs = Css_util.Obs

let checkb name expected got = Alcotest.(check bool) name expected got
let checki name expected got = Alcotest.(check int) name expected got
let checkf name expected got = Alcotest.(check (float 1e-9)) name expected got

(* --- bucket layout --- *)

let test_bucket_layout () =
  checki "n_buckets" 1025 Histo.n_buckets;
  (* non-positive and NaN land in bucket 0 *)
  checki "zero" 0 (Histo.bucket_of 0.0);
  checki "negative" 0 (Histo.bucket_of (-3.5));
  checki "nan" 0 (Histo.bucket_of Float.nan);
  (* 1.0 = 2^0 sits at the layout midpoint *)
  let mid = Histo.bucket_of 1.0 in
  checki "octave step" (mid + 8) (Histo.bucket_of 2.0);
  checki "octave down" (mid - 8) (Histo.bucket_of 0.5);
  (* every bucket spans a ratio of 2^(1/8) ~ 9%: values 10% apart never
     share a bucket, values 1% apart differ by at most one *)
  checkb "10% apart distinct" true (Histo.bucket_of 1.1 > Histo.bucket_of 1.0);
  (* clamping at the extremes, not crashing *)
  checki "huge clamps" 1024 (Histo.bucket_of 1e300);
  checkb "tiny clamps low" true (Histo.bucket_of 1e-300 >= 1);
  (* bucket edges bracket their members *)
  for _ = 0 to 0 do
    List.iter
      (fun v ->
        let i = Histo.bucket_of v in
        if i >= 1 && i < 1024 then begin
          checkb
            (Printf.sprintf "lo edge below %g" v)
            true
            (Histo.bucket_lo i <= v *. 1.0000001);
          checkb
            (Printf.sprintf "next lo above %g" v)
            true
            (Histo.bucket_lo (i + 1) >= v *. 0.9999999)
        end)
      [ 1e-6; 0.013; 0.5; 1.0; 7.3; 1024.0; 9.9e5 ]
  done

let test_moments_exact () =
  let h = Histo.create () in
  checki "empty count" 0 (Histo.count h);
  checkf "empty quantile" 0.0 (Histo.quantile h 0.5);
  List.iter (Histo.observe h) [ 3.0; 1.0; 4.0; 1.0; 5.0 ];
  checki "count" 5 (Histo.count h);
  checkf "sum" 14.0 (Histo.sum h);
  checkf "min" 1.0 (Histo.min_value h);
  checkf "max" 5.0 (Histo.max_value h);
  checkf "mean" 2.8 (Histo.mean h);
  Histo.clear h;
  checki "cleared" 0 (Histo.count h);
  checkf "cleared sum" 0.0 (Histo.sum h)

(* quantiles come from geometric bucket midpoints: within ~4.5% of the
   true value, and always inside [min, max] *)
let test_quantile_accuracy () =
  let h = Histo.create () in
  for i = 1 to 1000 do
    Histo.observe_int h i
  done;
  List.iter
    (fun (q, truth) ->
      let est = Histo.quantile h q in
      checkb
        (Printf.sprintf "q%.2f=%g within 5%% of %g" q est truth)
        true
        (Float.abs (est -. truth) /. truth <= 0.05))
    [ (0.5, 500.0); (0.95, 950.0); (0.99, 990.0) ];
  (* estimates never escape the exact extrema *)
  checkb "q1 at most max" true (Histo.quantile h 1.0 <= 1000.0);
  checkb "q1 near max" true (Histo.quantile h 1.0 >= 950.0);
  checkb "q0 clamped to min" true (Histo.quantile h 0.0 >= 1.0)

(* --- merging --- *)

(* the real consumer: the extraction engine's cone-size histogram,
   observed in item order, must repeat bitwise on a fresh run *)
let test_cone_histogram_repeats () =
  let design = Css_benchgen.Generator.generate Css_benchgen.Profile.tiny in
  let cone_json () =
    let obs = Obs.create () in
    let timer = Css_sta.Timer.build design in
    let verts = Css_seqgraph.Vertex.of_design design in
    let eng =
      Css_seqgraph.Extract.run ~obs ~engine:Css_seqgraph.Extract.Essential timer verts
        ~corner:Css_sta.Timer.Late
    in
    ignore (Css_seqgraph.Extract.round eng);
    match List.assoc_opt "extract.essential.cone_visited" (Obs.histograms obs) with
    | Some h -> Obs.Json.to_string (Histo.to_json h)
    | None -> Alcotest.fail "cone histogram not registered"
  in
  let base = cone_json () in
  checkb "histogram non-trivial" true (String.length base > 40);
  Alcotest.(check string) "second run" base (cone_json ())

(* --- JSON round-trip --- *)

let test_json_roundtrip () =
  let h = Histo.create () in
  List.iter (Histo.observe h) [ 0.0; -1.0; 1e-9; 0.5; 0.5; 3.14; 1e6; Float.nan ];
  let j = Histo.to_json h in
  let h' = Histo.of_json (Obs.Json.of_string (Obs.Json.to_string j)) in
  checki "count" (Histo.count h) (Histo.count h');
  checkf "min" (Histo.min_value h) (Histo.min_value h');
  checkf "max" (Histo.max_value h) (Histo.max_value h');
  List.iter
    (fun q -> checkf (Printf.sprintf "q%.2f" q) (Histo.quantile h q) (Histo.quantile h' q))
    [ 0.5; 0.95; 0.99 ];
  (* the restored histogram keeps observing identically *)
  Histo.observe h 42.0;
  Histo.observe h' 42.0;
  checkf "post-observe q95" (Histo.quantile h 0.95) (Histo.quantile h' 0.95)

(* --- allocation-free observe (same calibration idiom as test_layout) --- *)

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

let test_observe_allocation_free () =
  let h = Histo.create () in
  let n = 10_000 in
  for i = 0 to 99 do
    Histo.observe h (float_of_int i)
  done;
  let before = Gc.minor_words () in
  for i = 1 to n do
    Histo.observe h (0.001 *. float_of_int i);
    Histo.observe_int h i;
    Histo.observe Histo.dummy (float_of_int i)
  done;
  let allocated = Gc.minor_words () -. before in
  (* the loop body boxes two floats per iteration (the computed sample
     and the dummy's argument, both cross-module under dev -opaque);
     the observe calls themselves must not allocate *)
  let budget = (float_of_int n *. 2.0 *. float_box_words) +. 256.0 in
  checkb
    (Printf.sprintf "observe sweep allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true
    (allocated <= budget);
  checki "loop ran" ((2 * n) + 100) (Histo.count h)

let () =
  Alcotest.run "histo"
    [
      ( "histo",
        [
          Alcotest.test_case "bucket layout" `Quick test_bucket_layout;
          Alcotest.test_case "exact moments" `Quick test_moments_exact;
          Alcotest.test_case "quantile accuracy" `Quick test_quantile_accuracy;
          Alcotest.test_case "cone histogram repeats across runs" `Quick
            test_cone_histogram_repeats;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "observe allocation-free" `Quick test_observe_allocation_free;
        ] );
    ]
