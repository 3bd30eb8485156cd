(* Self-tests for the benchmark's own code: seeded inputs, the order
   statistics, the residual arithmetic, the failure tally and the
   result line. Run with [dune test perfbench]. *)

open Perfbench
module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Json = Css_util.Json

let check name cond = if not cond then failwith ("selftest failed: " ^ name)
let approx a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let seeded_inputs () =
  let text_a, stream_a = Inputs.eco_inputs ~seed:7 ~requests:12 in
  let text_b, stream_b = Inputs.eco_inputs ~seed:7 ~requests:12 in
  let text_c, stream_c = Inputs.eco_inputs ~seed:8 ~requests:12 in
  check "same seed, same design text" (String.equal text_a text_b);
  check "same seed, same request stream" (stream_a = stream_b);
  check "the ECO design is the preset for every seed" (String.equal text_a text_c);
  check "other seed, other request stream" (stream_a <> stream_c);
  let order s = Inputs.shuffle ~seed:s (List.init 8 Fun.id) in
  check "same seed, same design order" (order 7 = order 7);
  check "other seed, other design order" (order 7 <> order 8);
  check "an order holds every design once" (List.sort compare (order 7) = List.init 8 Fun.id);
  let tiny s = Inputs.design_text Css_benchgen.Profile.tiny ~seed:s in
  check "tiny: same seed, same text" (String.equal (tiny 3) (tiny 3));
  check "tiny: other seed, other text" (not (String.equal (tiny 3) (tiny 4)))

let percentiles () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  check "median odd" (Ledger.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Ledger.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "mean" (Ledger.mean [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  check "p90 of 100 is the 90th" (Ledger.percentile (xs 100) ~p:0.9 = Some 90.0);
  check "p90 refuses 99 samples (9 beyond)" (Ledger.percentile (xs 99) ~p:0.9 = None);
  check "p50 of 20 has 10 beyond" (Ledger.percentile (xs 20) ~p:0.5 = Some 10.0);
  check "p50 refuses 19 samples" (Ledger.percentile (xs 19) ~p:0.5 = None);
  check "no samples" (Ledger.percentile [||] ~p:0.5 = None)

let residuals () =
  let layers = [ ("a", 3.0); ("b", 4.5) ] in
  check "residual" (approx (Ledger.residual ~wall:10.0 layers) 2.5);
  check "residual share" (approx (Ledger.residual_share ~wall:10.0 layers) 0.25);
  check "overdrawn ledger is a positive share"
    (approx (Ledger.residual_share ~wall:5.0 layers) 0.5);
  check "gain" (approx (Ledger.gain_pct ~before:(-200.0) ~after:(-50.0)) 75.0);
  check "nothing to gain" (Ledger.gain_pct ~before:0.0 ~after:0.0 = 0.0)

(* A scheduled tiny design passes the css-suite audit; the same design
   with one latency planted outside its window fails it, and the
   failure shows in the tally and the result line. *)
let planted_failure () =
  let design = Css_benchgen.Generator.generate Css_benchgen.Profile.tiny in
  let timer = Timer.build design in
  List.iter (fun corner -> Workloads.css_schedule timer ~corner) Workloads.css_corners;
  let clean = Workloads.css_audit Ledger.empty_tally ~name:"tiny" design in
  check "clean audit" (clean.Ledger.failed = 0 && clean.Ledger.attempted = 2);
  check "clean failed_frac" (Ledger.failed_frac clean = 0.0);
  Design.set_scheduled_latency design (Design.ffs design).(0) (-1000.0);
  let planted = Workloads.css_audit clean ~name:"tiny" design in
  check "planted audit fails" (planted.Ledger.failed > 0 && planted.Ledger.attempted = 4);
  check "planted failed_frac rises" (Ledger.failed_frac planted > Ledger.failed_frac clean);
  let line =
    Ledger.result_line ~correct:false planted [ Ledger.metric "run_s" "s" 1.25 ]
  in
  let j = Json.of_string line in
  check "result line: failed" (Json.member "failed" j = Some (Json.Int planted.Ledger.failed));
  check "result line: correct" (Json.member "correct" j = Some (Json.Bool false));
  check "result line: metric"
    (match Json.member "metrics" j with
    | Some m -> (
      match Json.member "run_s" m with
      | Some r -> Option.map Json.to_float (Json.member "value" r) = Some 1.25
      | None -> false)
    | None -> false)

let () =
  seeded_inputs ();
  percentiles ();
  residuals ();
  planted_failure ();
  print_endline "perfbench selftest: ok"
