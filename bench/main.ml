(* The benchmark harness: regenerates every evaluation artifact of the
   paper on the synthetic superblue-like suite.

     TABLE I   — per-benchmark comparison of FPM, Ours-Early, IC-CSS+ and
                 Ours against the initial ("Contest 1st") state, with the
                 paper's columns: early/late WNS+TNS, CSS/OPT/total
                 runtime, #extracted edges, HPWL increase.
     SUMMARY   — the paper's aggregate rows: average improvements, CSS
                 speedup, total speedup, extracted-edge reduction.
     FIG 8     — the per-iteration WNS/TNS trajectory on sb18.
     FIG 2     — extraction-engine comparison (essential vs IC-CSS
                 callback vs full) on one design.
     JSON      — BENCH_css.json, the machine-readable artifact: one
                 record per (design, engine) with per-iteration traces
                 and Obs counters (schema in docs/OBSERVABILITY.md).
     ABLATIONS — the DESIGN.md A1/A2/A4 design-choice studies.
     BECHAMEL  — micro-benchmarks of the computational kernels.

   Environment:
     CSS_BENCH_SCALE   scale factor on benchmark sizes (default 1.0)
     CSS_BENCH_FAST    if set, only sb18 and sb16 are run in Table I
                       (the JSON section always runs its three designs)
     CSS_BENCH_SEEDS   replicate each benchmark with N extra seeds and
                       report mean values in Table I (default 1)
     CSS_BENCH_CSV     write the Table I rows to this CSV file
     CSS_BENCH_JSON    path of the JSON artifact (default BENCH_css.json)
     CSS_BENCH_DESIGNS comma-separated design list for the JSON section
                       (default sb1,sb7,sb16,sb18; "-paper" suffixed
                       names select the Profile.paper variants)
     CSS_BENCH_ENGINES comma-separated engine subset for the JSON
                       section ("full" always runs: it is the edge-ratio
                       denominator; default all three engines)
     CSS_BENCH_JOBS    worker domains for the parallel-extraction
                       speedup measurement in the JSON section (default:
                       the runtime's recommended domain count)
     CSS_BENCH_JSON_ONLY   if set, run only the JSON section
     CSS_BENCH_PAPER_ONLY  if set, run only the paper-scale section
                           (Flow.run on the "-paper" profile variants)
     CSS_BENCH_PAPER_DESIGNS comma-separated designs for the paper-scale
                           section (default sb18-paper)
     CSS_BENCH_SKIP_BECHAMEL   if set, skip the micro-benchmarks
     CSS_BENCH_REQUIRE_CACHE   if set, fail (exit 1) when any engine's
                               warm macromodel-cache hit ratio is 0 *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Macromodel = Css_cache.Macromodel
module Vertex = Css_seqgraph.Vertex
module Extract = Css_seqgraph.Extract
module Scheduler = Css_core.Scheduler
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Profile = Css_benchgen.Profile
module Generator = Css_benchgen.Generator
module Table = Css_util.Table
module Stats = Css_util.Stats

let scale =
  match Sys.getenv_opt "CSS_BENCH_SCALE" with
  | Some s -> float_of_string s
  | None -> 1.0

let fast = Sys.getenv_opt "CSS_BENCH_FAST" <> None

let replicas =
  match Sys.getenv_opt "CSS_BENCH_SEEDS" with Some s -> max 1 (int_of_string s) | None -> 1

let csv_path = Sys.getenv_opt "CSS_BENCH_CSV"

let profiles =
  let all = Profile.presets in
  let selected =
    if fast then List.filter (fun p -> p.Profile.name = "sb18" || p.Profile.name = "sb16") all
    else all
  in
  List.map (fun p -> if scale = 1.0 then p else Profile.scale scale p) selected

let section name =
  Printf.printf "\n";
  Printf.printf "======================================================================\n";
  Printf.printf "  %s\n" name;
  Printf.printf "======================================================================\n%!"

let fmt_f x = Printf.sprintf "%.2f" x

(* ------------------------------------------------------------------ *)
(* TABLE I                                                             *)

type row = {
  solution : string;
  report : Evaluator.report;
  css : float option;
  opt : float option;
  total : float option;
  edges : int option;
  hpwl_incr : float option;
}

(* Average a list of evaluator reports and flow metrics field-wise (used
   when CSS_BENCH_SEEDS > 1). *)
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_report (rs : Evaluator.report list) =
  {
    Evaluator.wns_early = mean (List.map (fun r -> r.Evaluator.wns_early) rs);
    tns_early = mean (List.map (fun r -> r.Evaluator.tns_early) rs);
    wns_late = mean (List.map (fun r -> r.Evaluator.wns_late) rs);
    tns_late = mean (List.map (fun r -> r.Evaluator.tns_late) rs);
    num_early_violations =
      List.fold_left (fun a r -> a + r.Evaluator.num_early_violations) 0 rs / List.length rs;
    num_late_violations =
      List.fold_left (fun a r -> a + r.Evaluator.num_late_violations) 0 rs / List.length rs;
    hpwl = mean (List.map (fun r -> r.Evaluator.hpwl) rs);
    constraint_errors = List.concat_map (fun r -> r.Evaluator.constraint_errors) rs;
  }

let run_benchmark profile =
  let seeds = List.init replicas (fun i -> profile.Profile.seed + (1000 * i)) in
  let runs =
    List.map
      (fun seed ->
        let p = { profile with Profile.seed } in
        let base = Generator.generate p in
        let initial = Evaluator.evaluate base in
        let flows = [ Flow.Fpm; Flow.Ours_early; Flow.Iccss_plus; Flow.Ours ] in
        (base, initial, List.map (fun algo -> Flow.run ~algo (Flow.clone base)) flows))
      seeds
  in
  let base, _, _ = List.hd runs in
  let initial_row =
    {
      solution = "Contest-1st";
      report = mean_report (List.map (fun (_, i, _) -> i) runs);
      css = None;
      opt = None;
      total = None;
      edges = None;
      hpwl_incr = None;
    }
  in
  let algo_rows =
    List.mapi
      (fun idx _ ->
        let per_seed = List.map (fun (_, _, flows) -> List.nth flows idx) runs in
        let f sel = mean (List.map sel per_seed) in
        {
          solution = (List.hd per_seed).Flow.algo;
          report = mean_report (List.map (fun r -> r.Flow.report) per_seed);
          css = Some (f (fun r -> r.Flow.css_seconds));
          opt = Some (f (fun r -> r.Flow.opt_seconds));
          total = Some (f (fun r -> r.Flow.total_seconds));
          edges =
            Some
              (List.fold_left (fun a r -> a + r.Flow.extracted_edges) 0 per_seed
              / List.length per_seed);
          hpwl_incr = Some (f (fun r -> r.Flow.hpwl_increase_pct));
        })
      [ Flow.Fpm; Flow.Ours_early; Flow.Iccss_plus; Flow.Ours ]
  in
  (base, initial_row :: algo_rows)

let table_i () =
  section "TABLE I — slack optimization comparison (synthetic superblue suite)";
  Printf.printf "(scale %.2f; all times wall-clock seconds; slacks in ps)\n\n%!" scale;
  let t =
    Table.create
      [ "bench"; "cells"; "FFs"; "solution"; "eWNS"; "eTNS"; "lWNS"; "lTNS"; "CSS s"; "OPT s";
        "total"; "#edges"; "HPWL+%" ]
  in
  Table.set_aligns t
    Table.[ Left; Right; Right; Left; Right; Right; Right; Right; Right; Right; Right; Right; Right ];
  let all = List.map (fun p -> (p, run_benchmark p)) profiles in
  List.iter
    (fun ((p : Profile.t), (base, rows)) ->
      List.iteri
        (fun i r ->
          let f = function Some x -> Printf.sprintf "%.2f" x | None -> "-" in
          let fi = function Some x -> string_of_int x | None -> "-" in
          let f4 = function Some x -> Printf.sprintf "%.4f" x | None -> "-" in
          Table.add_row t
            [
              (if i = 0 then p.Profile.name else "");
              (if i = 0 then string_of_int (Design.num_cells base) else "");
              (if i = 0 then string_of_int (Array.length (Design.ffs base)) else "");
              r.solution;
              fmt_f r.report.Evaluator.wns_early;
              fmt_f r.report.Evaluator.tns_early;
              fmt_f r.report.Evaluator.wns_late;
              fmt_f r.report.Evaluator.tns_late;
              f r.css;
              f r.opt;
              f r.total;
              fi r.edges;
              f4 r.hpwl_incr;
            ])
        rows;
      Table.add_sep t)
    all;
  Table.print t;
  if replicas > 1 then
    Printf.printf "(each row is the mean of %d seed replicas)\n" replicas;
  (match csv_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc
          "bench,cells,ffs,solution,ewns,etns,lwns,ltns,css_s,opt_s,total_s,edges,hpwl_incr_pct\n";
        List.iter
          (fun ((p : Profile.t), (base, rows)) ->
            List.iter
              (fun r ->
                let fo = function Some x -> Printf.sprintf "%.6f" x | None -> "" in
                let io = function Some x -> string_of_int x | None -> "" in
                Printf.fprintf oc "%s,%d,%d,%s,%.4f,%.4f,%.4f,%.4f,%s,%s,%s,%s,%s\n"
                  p.Profile.name (Design.num_cells base)
                  (Array.length (Design.ffs base))
                  r.solution r.report.Evaluator.wns_early r.report.Evaluator.tns_early
                  r.report.Evaluator.wns_late r.report.Evaluator.tns_late (fo r.css) (fo r.opt)
                  (fo r.total) (io r.edges) (fo r.hpwl_incr))
              rows)
          all);
    Printf.printf "wrote %s\n" path);
  all

(* ------------------------------------------------------------------ *)
(* SUMMARY: the paper's aggregate claims                               *)

let summary all =
  section "TABLE I SUMMARY — aggregate ratios (compare the paper's bottom rows)";
  let by_solution name =
    List.filter_map
      (fun (_, (_, rows)) -> List.find_opt (fun r -> r.solution = name) rows)
      all
  in
  let initial = by_solution "Contest-1st" in
  let improvement_pct metric sol =
    (* average per-design improvement of a negative-slack metric vs the
       initial state, in percent (100% = all violations removed) *)
    let s = Stats.create () in
    List.iter2
      (fun r0 r1 ->
        let v0 = metric r0.report and v1 = metric r1.report in
        if v0 < -1e-9 then Stats.add s ((v1 -. v0) /. -.v0 *. 100.0))
      initial (by_solution sol);
    Stats.mean s
  in
  let total_seconds sol =
    List.fold_left (fun acc r -> acc +. Option.value ~default:0.0 r.total) 0.0 (by_solution sol)
  in
  let css_seconds sol =
    List.fold_left (fun acc r -> acc +. Option.value ~default:0.0 r.css) 0.0 (by_solution sol)
  in
  let edges sol =
    List.fold_left (fun acc r -> acc + Option.value ~default:0 r.edges) 0 (by_solution sol)
  in
  let t = Table.create [ "metric"; "FPM"; "Ours-Early"; "IC-CSS+"; "Ours"; "paper (FPM/OursE/IC+/Ours)" ] in
  Table.set_aligns t Table.[ Left; Right; Right; Right; Right; Right ];
  let row name f paper =
    Table.add_row t ((name :: List.map f [ "FPM"; "Ours-Early"; "IC-CSS+"; "Ours" ]) @ [ paper ])
  in
  row "early WNS improvement %"
    (fun s -> fmt_f (improvement_pct (fun r -> r.Evaluator.wns_early) s))
    "64.8 / 87.5 / 87.5 / 87.5";
  row "early TNS improvement %"
    (fun s -> fmt_f (improvement_pct (fun r -> r.Evaluator.tns_early) s))
    "80.8 / 88.1 / 88.1 / 88.0";
  row "late TNS improvement %"
    (fun s -> fmt_f (improvement_pct (fun r -> r.Evaluator.tns_late) s))
    "~0 / ~0 / 12.3 / 12.3";
  row "CSS seconds" (fun s -> Printf.sprintf "%.2f" (css_seconds s)) "- / 2.2 / 2369 / 48";
  row "total seconds" (fun s -> Printf.sprintf "%.2f" (total_seconds s)) "744 / 27.6 / 2547 / 215";
  row "#extracted edges" (fun s -> string_of_int (edges s)) "- / ~1k / 4.2M / 420k";
  Table.print t;
  let r x y = if y > 0.0 then x /. y else nan in
  Printf.printf "\nheadline ratios (this run | paper):\n";
  Printf.printf "  CSS speedup,    Ours vs IC-CSS+  : %6.2fx | 49.11x\n"
    (r (css_seconds "IC-CSS+") (css_seconds "Ours"));
  Printf.printf "  total speedup,  Ours vs IC-CSS+  : %6.2fx | 11.83x\n"
    (r (total_seconds "IC-CSS+") (total_seconds "Ours"));
  Printf.printf "  total speedup,  Ours-Early vs FPM: %6.2fx | 27.01x\n"
    (r (total_seconds "FPM") (total_seconds "Ours-Early"));
  Printf.printf "  CSS speedup,    Ours-Early vs FPM: %6.2fx |   (n/a)\n"
    (r (css_seconds "FPM") (css_seconds "Ours-Early"));
  Printf.printf "  edge reduction, Ours vs IC-CSS+  : %6.2f%% | 90.05%%\n%!"
    (100.0 *. (1.0 -. r (float_of_int (edges "Ours")) (float_of_int (edges "IC-CSS+"))))

(* ------------------------------------------------------------------ *)
(* FIG 8                                                               *)

let sb18 () =
  let base = Option.get (Profile.by_name "sb18") in
  if scale = 1.0 then base else Profile.scale scale base

let fig8 () =
  section "FIG 8 — iterative optimization trajectory on sb18";
  let design = Generator.generate (sb18 ()) in
  let r = Flow.run ~algo:Flow.Ours design in
  Printf.printf "round phase       iter |  early WNS  early TNS |   late WNS    late TNS\n";
  Printf.printf "----------------------------------------------------------------------\n";
  List.iter
    (fun (pt : Flow.trace_point) ->
      Printf.printf "%5d %-11s %4d | %10.2f %10.2f | %10.2f %11.2f\n" pt.Flow.round pt.Flow.phase
        pt.Flow.iter pt.Flow.wns_early pt.Flow.tns_early pt.Flow.wns_late pt.Flow.tns_late)
    r.Flow.trace;
  Printf.printf
    "\n(as in the paper's Fig. 8: the early phase converges in a couple of\n\
     iterations; the first late-CSS round yields the bulk of the late TNS\n\
     recovery; later rounds refine the realization residue.)\n%!"

(* ------------------------------------------------------------------ *)
(* FIG 2 — extraction comparison                                       *)

let fig2 () =
  section "FIG 2 — sequential graph extraction: essential vs IC-CSS vs full";
  let p = sb18 () in
  let t = Table.create [ "engine"; "#edges extracted"; "gate-level nodes walked"; "scope" ] in
  Table.set_aligns t Table.[ Left; Right; Right; Left ];
  let design = Generator.generate p in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let essential = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  ignore (Extract.round essential);
  let es = Extract.stats essential in
  Table.add_row t
    [ "iterative essential (ours)"; string_of_int es.Extract.edges_extracted;
      string_of_int es.Extract.cone_nodes; "only negative edges" ];
  let design2 = Generator.generate p in
  let timer2 = Timer.build design2 in
  let verts2 = Vertex.of_design design2 in
  let iccss = Extract.run ~engine:Extract.Iccss timer2 verts2 ~corner:Timer.Late in
  ignore (Extract.round iccss);
  let is = Extract.stats iccss in
  Table.add_row t
    [ "IC-CSS callback [Albrecht]"; string_of_int is.Extract.edges_extracted;
      string_of_int is.Extract.cone_nodes; "all edges of critical vertices" ];
  let design3 = Generator.generate p in
  let timer3 = Timer.build design3 in
  let verts3 = Vertex.of_design design3 in
  let fs = Extract.stats (Extract.run ~engine:Extract.Full timer3 verts3 ~corner:Timer.Late) in
  Table.add_row t
    [ "full extraction"; string_of_int fs.Extract.edges_extracted;
      string_of_int fs.Extract.cone_nodes; "everything" ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* BENCH_css.json — machine-readable engine comparison                 *)

module Obs = Css_util.Obs

let json_path =
  match Sys.getenv_opt "CSS_BENCH_JSON" with Some p -> p | None -> "BENCH_css.json"

let bench_jobs =
  match Sys.getenv_opt "CSS_BENCH_JOBS" with
  | Some s -> max 1 (int_of_string s)
  | None -> Css_util.Pool.default_jobs ()

(* Extraction rounds until one changes nothing: with the timer fixed, a
   re-walked endpoint only refreshes what the first walk stored. *)
let extract_until_quiet eng = while (Extract.round eng).Extract.added > 0 do () done

(* Wall-clock of one extraction phase run until it is quiet. Results are
   bit-identical with or without the pool; only the clock differs. *)
let time_extraction ?pool p engine =
  let design = Generator.generate p in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let t0 = Css_util.Wall_clock.now () in
  extract_until_quiet (Extract.run ?pool ~engine timer verts ~corner:Timer.Late);
  (Css_util.Wall_clock.now () -. t0) *. 1000.0

(* Cold-vs-warm extraction through the macromodel cache: a first
   extraction populates a fresh cache, a few FF latencies move (latency
   edits never invalidate — only delay/topology changes do), then a
   second extraction over the same timer replays cone interfaces from
   the cache. Returns (cold_ms, warm_ms, hit_ratio) where the ratio is
   hits/(hits+misses) over the warm run only. *)
let cache_cold_warm p engine =
  let design = Generator.generate p in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let cache = Macromodel.create () in
  let run_once () =
    let t0 = Css_util.Wall_clock.now () in
    extract_until_quiet (Extract.run ~cache ~engine timer verts ~corner:Timer.Late);
    (Css_util.Wall_clock.now () -. t0) *. 1000.0
  in
  let cold_ms = run_once () in
  let ffs = Design.ffs design in
  let n = min 4 (Array.length ffs) in
  for i = 0 to n - 1 do
    Design.set_scheduled_latency design ffs.(i)
      (Design.scheduled_latency design ffs.(i) +. 0.05)
  done;
  Timer.update_latencies timer (Array.to_list (Array.sub ffs 0 n));
  let h0 = Macromodel.hits cache + Macromodel.rehash_hits cache in
  let m0 = Macromodel.misses cache in
  let warm_ms = run_once () in
  let hits = Macromodel.hits cache + Macromodel.rehash_hits cache - h0 in
  let misses = Macromodel.misses cache - m0 in
  let ratio =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  (cold_ms, warm_ms, ratio)

(* One CSS-only run (late corner) of one extraction engine on a fresh
   copy of [p], instrumented with an Obs context. Returns the scheduler
   result, the engine's extraction statistics, wall-clock milliseconds,
   the obs context, the timer (for final WNS/TNS reads) and the cell
   count (the cells/sec numerator). *)
let json_engine_run p engine_name =
  let design = Generator.generate p in
  let obs = Obs.create () in
  let timer = Timer.build ~obs design in
  let t0 = Css_util.Wall_clock.now () in
  let extraction, stats =
    match engine_name with
    | "iterative-essential" -> Css_core.Engine.ours ~obs timer ~corner:Timer.Late
    | "iccss-callback" -> Css_baselines.Iccss_plus.extraction ~obs timer ~corner:Timer.Late
    | _ ->
      (* full extraction up front; the scheduler sees it as one huge
         first round *)
      Css_core.Engine.full ~obs timer ~corner:Timer.Late
  in
  let result = Scheduler.run ~obs timer extraction in
  let wall_ms = (Css_util.Wall_clock.now () -. t0) *. 1000.0 in
  (result, stats, wall_ms, obs, timer, Design.num_cells design)

let json_designs =
  match Sys.getenv_opt "CSS_BENCH_DESIGNS" with
  | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  | None -> [ "sb1"; "sb7"; "sb16"; "sb18" ]

let write_json entries =
  let module J = Obs.Json in
  (* atomic (tmp+rename): a bench run killed mid-write must not leave a
     truncated artifact for the CI gate to choke on *)
  Css_util.Json.write_file json_path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i e ->
          if i > 0 then output_string oc ",\n";
          output_string oc (J.to_string e))
        entries;
      output_string oc "\n]\n");
  Printf.printf "wrote %s (%d records; schema in docs/OBSERVABILITY.md)\n%!" json_path
    (List.length entries)

(* per-record latency histograms (the obs context is per engine run), in
   the same shape as a stats dump's "histograms" object so css_stats
   compares p95s across bench artifacts *)
let histograms_field obs =
  ( "histograms",
    Obs.Json.Obj
      (List.map (fun (n, h) -> (n, Css_util.Histo.to_json h)) (Obs.histograms obs)) )

let bench_json () =
  section "BENCH_css.json — machine-readable per-iteration engine comparison";
  let module J = Obs.Json in
  let pool =
    if bench_jobs > 1 then Some (Css_util.Pool.create ~jobs:bench_jobs ()) else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Css_util.Pool.shutdown pool) @@ fun () ->
  let bench_profiles =
    List.map
      (fun name ->
        let p = Option.get (Profile.by_name name) in
        if scale = 1.0 then p else Profile.scale scale p)
      json_designs
  in
  let t =
    Table.create
      [ "design"; "engine"; "iters"; "#edges"; "#full"; "ratio"; "wall ms"; "ext speedup" ]
  in
  Table.set_aligns t Table.[ Left; Left; Right; Right; Right; Right; Right; Right ];
  let entries =
    List.concat_map
      (fun (p : Profile.t) ->
        (* the full engine first: its extraction count is the
           denominator [edges_full] for every engine on this design *)
        let engines =
          match Sys.getenv_opt "CSS_BENCH_ENGINES" with
          | None -> [ "full"; "iterative-essential"; "iccss-callback" ]
          | Some s ->
            (* [full] always runs — it is the ratio denominator *)
            let wanted = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
            "full" :: List.filter (fun e -> e <> "full") wanted
        in
        let runs = List.map (fun e -> (e, json_engine_run p e)) engines in
        let edges_full =
          match List.assoc "full" runs with _, s, _, _, _, _ -> s.Extract.edges_extracted
        in
        List.map
          (fun (engine_name, (result, stats, wall_ms, obs, timer, cells)) ->
            let edges = stats.Extract.edges_extracted in
            let variant =
              match engine_name with
              | "iterative-essential" -> Extract.Essential
              | "iccss-callback" -> Extract.Iccss
              | _ -> Extract.Full
            in
            let extract_seq_ms = time_extraction p variant in
            let extract_par_ms =
              match pool with
              | Some _ -> time_extraction ?pool p variant
              | None -> extract_seq_ms
            in
            let extract_speedup = extract_seq_ms /. Float.max extract_par_ms 1e-9 in
            let cache_cold_ms, cache_warm_ms, cache_hit_ratio = cache_cold_warm p variant in
            if Sys.getenv_opt "CSS_BENCH_REQUIRE_CACHE" <> None && cache_hit_ratio <= 0.0 then begin
              Printf.eprintf
                "bench: macromodel cache hit ratio is 0 on %s/%s (CSS_BENCH_REQUIRE_CACHE)\n"
                p.Profile.name engine_name;
              exit 1
            end;
            Table.add_row t
              [
                p.Profile.name;
                engine_name;
                string_of_int result.Scheduler.iterations;
                string_of_int edges;
                string_of_int edges_full;
                Printf.sprintf "%.1f%%" (100.0 *. float_of_int edges /. float_of_int (max 1 edges_full));
                Printf.sprintf "%.1f" wall_ms;
                Printf.sprintf "%.2fx @%d" extract_speedup bench_jobs;
              ];
            let per_iter =
              J.List
                (List.map
                   (fun (it : Scheduler.iteration) ->
                     J.Obj
                       [
                         ("iter", J.Int it.Scheduler.index);
                         ("wns_early", J.Float it.Scheduler.wns_early);
                         ("tns_early", J.Float it.Scheduler.tns_early);
                         ("wns_late", J.Float it.Scheduler.wns_late);
                         ("tns_late", J.Float it.Scheduler.tns_late);
                         ("edges_in_graph", J.Int it.Scheduler.edges_in_graph);
                         ("max_increment", J.Float it.Scheduler.max_increment);
                       ])
                   result.Scheduler.trace)
            in
            J.Obj
              [
                ("design", J.String p.Profile.name);
                ("engine", J.String engine_name);
                ("iterations", J.Int result.Scheduler.iterations);
                ( "stop_reason",
                  J.String (Scheduler.stop_reason_name result.Scheduler.stop_reason) );
                ("edges_extracted", J.Int edges);
                ("edges_full", J.Int edges_full);
                ("wns_late", J.Float (Timer.wns timer Timer.Late));
                ("wns_early", J.Float (Timer.wns timer Timer.Early));
                ("tns", J.Float (Timer.tns timer Timer.Late));
                ("wall_ms", J.Float wall_ms);
                ("cells", J.Int cells);
                ("cells_per_sec", J.Float (float_of_int cells /. Float.max (wall_ms /. 1000.0) 1e-9));
                ("peak_rss_bytes", J.Int (Css_util.Rusage.peak_rss_bytes ()));
                ("jobs", J.Int bench_jobs);
                ("extract_seq_ms", J.Float extract_seq_ms);
                ("extract_par_ms", J.Float extract_par_ms);
                ("extract_speedup", J.Float extract_speedup);
                ("cache_cold_ms", J.Float cache_cold_ms);
                ("cache_warm_ms", J.Float cache_warm_ms);
                ("cache_hit_ratio", J.Float cache_hit_ratio);
                ("per_iter", per_iter);
                ("counters", J.Obj (List.map (fun (n, v) -> (n, J.Int v)) (Obs.counters obs)));
                histograms_field obs;
              ])
          runs)
      bench_profiles
  in
  Table.print t;
  write_json entries

(* ------------------------------------------------------------------ *)
(* PAPER SCALE — end-to-end Flow.run at superblue cell counts          *)

(* The curves the paper draws (CSS speedup, essential-edge ratio) are
   measured on 0.77M-1.9M-cell designs; this section reproduces them on
   the "-paper" profile variants (Profile.paper). One record per design:
   the full flow wall-clock, the throughput it implies (cells/sec), the
   process peak RSS, and the extraction-engine edge ratio measured on
   the initial (pre-schedule) state — the number Fig. 2 is about. *)

let paper_designs =
  match Sys.getenv_opt "CSS_BENCH_PAPER_DESIGNS" with
  | Some s -> String.split_on_char ',' s |> List.filter (fun x -> x <> "")
  | None -> [ "sb18-paper" ]

(* A paper-scale run on a machine with less memory than the design needs
   should degrade (serial extraction, cheaper engine, early stop with the
   best checkpoint) rather than get OOM-killed mid-measurement. Budget:
   what we already hold plus 80% of what the kernel says is still
   available; 0 (= "not measured", non-Linux) arms no limit. *)
let paper_budget () =
  let available = Css_util.Rusage.available_bytes () in
  if available = 0 then Css_util.Budget.no_limits
  else
    let rss_cap = Css_util.Rusage.current_rss_bytes () + (available * 4 / 5) in
    { Css_util.Budget.no_limits with Css_util.Budget.rss_bytes = Some rss_cap }

let paper_scale () =
  section "PAPER SCALE — Flow.run end-to-end at superblue cell counts";
  let module J = Obs.Json in
  let budget = paper_budget () in
  (match budget.Css_util.Budget.rss_bytes with
  | Some b -> Printf.printf "memory budget: %d MB RSS (probed from MemAvailable)\n%!" (b / (1024 * 1024))
  | None -> Printf.printf "memory budget: none (MemAvailable not readable)\n%!");
  let t =
    Table.create
      [ "design"; "cells"; "FFs"; "flow s"; "cells/s"; "RSS MB"; "lTNS before"; "lTNS after";
        "ess/full edges" ]
  in
  Table.set_aligns t Table.[ Left; Right; Right; Right; Right; Right; Right; Right; Right ];
  let entries =
    List.map
      (fun name ->
        let p = Option.get (Profile.by_name name) in
        (* extraction edge ratio on the initial state, before any
           latency moves (a fresh design: Flow.run mutates its input) *)
        let ratio_design = Generator.generate p in
        let ratio_timer = Timer.build ratio_design in
        let ratio_verts = Vertex.of_design ratio_design in
        let ess = Extract.run ~engine:Extract.Essential ratio_timer ratio_verts ~corner:Timer.Late in
        ignore (Extract.round ess);
        let edges_essential = (Extract.stats ess).Extract.edges_extracted in
        let full = Extract.run ~engine:Extract.Full ratio_timer ratio_verts ~corner:Timer.Late in
        let edges_full = (Extract.stats full).Extract.edges_extracted in
        let design = Generator.generate p in
        let cells = Design.num_cells design in
        let ffs = Array.length (Design.ffs design) in
        let initial = Evaluator.evaluate design in
        let obs = Obs.create () in
        let t0 = Css_util.Wall_clock.now () in
        let config = { Flow.default_config with Flow.budget; Flow.obs = obs } in
        let r = Flow.run ~config ~algo:Flow.Ours design in
        let wall_s = Css_util.Wall_clock.now () -. t0 in
        if r.Flow.degradations <> [] then
          Printf.printf "%s: budget degradations: %s (stop %s)\n%!" name
            (String.concat ", " r.Flow.degradations)
            r.Flow.stop_reason;
        let cells_per_sec = float_of_int cells /. Float.max wall_s 1e-9 in
        let peak_rss = Css_util.Rusage.peak_rss_bytes () in
        Table.add_row t
          [
            name;
            string_of_int cells;
            string_of_int ffs;
            Printf.sprintf "%.1f" wall_s;
            Printf.sprintf "%.0f" cells_per_sec;
            string_of_int (peak_rss / (1024 * 1024));
            fmt_f initial.Evaluator.tns_late;
            fmt_f r.Flow.report.Evaluator.tns_late;
            Printf.sprintf "%d/%d (%.1f%%)" edges_essential edges_full
              (100.0 *. float_of_int edges_essential /. float_of_int (max 1 edges_full));
          ];
        J.Obj
          [
            ("design", J.String name);
            ("engine", J.String "flow-ours");
            ("cells", J.Int cells);
            ("ffs", J.Int ffs);
            ("wall_ms", J.Float (wall_s *. 1000.0));
            ("cells_per_sec", J.Float cells_per_sec);
            ("peak_rss_bytes", J.Int peak_rss);
            ("tns_late_initial", J.Float initial.Evaluator.tns_late);
            ("tns_late_final", J.Float r.Flow.report.Evaluator.tns_late);
            ("tns_early_initial", J.Float initial.Evaluator.tns_early);
            ("tns_early_final", J.Float r.Flow.report.Evaluator.tns_early);
            ("edges_extracted", J.Int edges_essential);
            ("edges_full", J.Int edges_full);
            ( "edge_ratio",
              J.Float (float_of_int edges_essential /. float_of_int (max 1 edges_full)) );
            ("stop_reason", J.String r.Flow.stop_reason);
            ( "degradations",
              J.List (List.map (fun d -> J.String d) r.Flow.degradations) );
            ( "rss_budget_bytes",
              J.Int (Option.value ~default:0 budget.Css_util.Budget.rss_bytes) );
            histograms_field obs;
          ])
      paper_designs
  in
  Table.print t;
  entries

(* ------------------------------------------------------------------ *)
(* ABLATIONS                                                           *)

let run_ablation ~name ~config ~limit p =
  let design = Generator.generate p in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let engine = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  let extraction =
    {
      Scheduler.extract = (fun () -> Extract.round ?limit engine);
      graph = Extract.graph engine;
      on_cap_hit = (fun _ -> ());
    }
  in
  let t0 = Css_util.Wall_clock.now () in
  let result = Scheduler.run ~config timer extraction in
  let dt = Css_util.Wall_clock.now () -. t0 in
  let stats = Extract.stats engine in
  ( name,
    dt,
    result.Scheduler.iterations,
    stats.Extract.edges_extracted,
    Timer.wns timer Timer.Late,
    Timer.tns timer Timer.Late )

let optimality_gap () =
  section "OPTIMALITY — achieved WNS vs the MMWC theoretical bound";
  let t = Table.create [ "bench"; "corner"; "initial WNS"; "bound"; "achieved (CSS only)" ] in
  Table.set_aligns t Table.[ Left; Left; Right; Right; Right ];
  List.iter
    (fun name ->
      let p =
        let base = Option.get (Profile.by_name name) in
        if scale = 1.0 then base else Profile.scale scale base
      in
      let design = Generator.generate p in
      let timer = Timer.build design in
      List.iter
        (fun (corner, cname) ->
          let bound, before = Css_core.Optimum.gap timer ~corner in
          ignore (Css_core.Engine.run_ours timer ~corner);
          Table.add_row t
            [ name; cname; fmt_f before; fmt_f bound; fmt_f (Timer.wns timer corner) ])
        [ (Timer.Early, "early"); (Timer.Late, "late") ])
    [ "sb16"; "sb18" ];
  Table.print t;
  Printf.printf
    "\n(the bound is the min mean cycle after contracting fixed vertices —\n\
     no schedule can do better; gaps come from the Eq. 11 cross-corner caps\n\
     and the lexicographic objective.)\n%!"

let ablations () =
  section "ABLATIONS — design choices (DESIGN.md section 6), late CSS on sb18";
  let p = sb18 () in
  let t = Table.create [ "variant"; "seconds"; "iters"; "#edges"; "late WNS"; "late TNS" ] in
  Table.set_aligns t Table.[ Left; Right; Right; Right; Right; Right ];
  let base_cfg = Scheduler.default_config in
  let runs =
    [
      run_ablation ~name:"baseline (ours)" ~config:base_cfg ~limit:None p;
      run_ablation ~name:"A1: one endpoint per round"
        ~config:{ base_cfg with Scheduler.max_iterations = 400 }
        ~limit:(Some 1) p;
      run_ablation ~name:"A2: re-derive weights each iter (no Eq.10)"
        ~config:{ base_cfg with Scheduler.verify_weights = true }
        ~limit:None p;
      run_ablation ~name:"A4: non-negative admission rule off"
        ~config:{ base_cfg with Scheduler.nonneg_rule = false }
        ~limit:None p;
    ]
  in
  List.iter
    (fun (name, dt, iters, edges, wns, tns) ->
      Table.add_row t
        [ name; Printf.sprintf "%.3f" dt; string_of_int iters; string_of_int edges; fmt_f wns;
          fmt_f tns ])
    runs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* EXTENSIONS                                                          *)

let extensions () =
  section "EXTENSIONS — Section VI future work: gate sizing and CTS guidance";
  let p = sb18 () in
  let base = Generator.generate p in
  let t =
    Table.create [ "flow variant"; "eWNS"; "eTNS"; "lWNS"; "lTNS"; "total s"; "HPWL+%" ]
  in
  Table.set_aligns t Table.[ Left; Right; Right; Right; Right; Right; Right ];
  let run name config =
    let r = Flow.run ~config ~algo:Flow.Ours (Flow.clone base) in
    Table.add_row t
      [
        name;
        fmt_f r.Flow.report.Evaluator.wns_early;
        fmt_f r.Flow.report.Evaluator.tns_early;
        fmt_f r.Flow.report.Evaluator.wns_late;
        fmt_f r.Flow.report.Evaluator.tns_late;
        Printf.sprintf "%.2f" r.Flow.total_seconds;
        Printf.sprintf "%.3f" r.Flow.hpwl_increase_pct;
      ]
  in
  let base_cfg = Flow.default_config in
  run "paper flow (reconnect + move)" base_cfg;
  run "+ gate sizing" { base_cfg with Flow.use_resize = true };
  run "+ CTS guidance" { base_cfg with Flow.use_cts = true };
  run "+ both" { base_cfg with Flow.use_resize = true; Flow.use_cts = true };
  Table.print t

(* ------------------------------------------------------------------ *)
(* BECHAMEL micro-benchmarks                                           *)

let bechamel_kernels () =
  section "BECHAMEL — computational kernels";
  let open Bechamel in
  let p = Profile.scale 0.25 (Option.get (Profile.by_name "sb18")) in
  let design = Generator.generate p in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let rng = Css_util.Rng.create 5 in
  let test_full_prop =
    Test.make ~name:"full timing propagation" (Staged.stage (fun () -> Timer.propagate timer))
  in
  let test_incremental =
    Test.make ~name:"incremental latency update"
      (Staged.stage (fun () ->
           let ff = ffs.(Css_util.Rng.int rng (Array.length ffs)) in
           Design.set_scheduled_latency design ff (Css_util.Rng.float rng 20.0);
           Timer.update_latencies timer [ ff ]))
  in
  let test_cone =
    let g = Timer.graph timer in
    let endpoints = Css_sta.Graph.endpoints g in
    Test.make ~name:"fan-in cone extraction"
      (Staged.stage (fun () ->
           let e = endpoints.(Css_util.Rng.int rng (Array.length endpoints)) in
           ignore (Timer.cone_to_endpoint timer Timer.Late (Css_sta.Graph.endpoint_of_node g e))))
  in
  let test_essential_round =
    Test.make ~name:"essential extraction round"
      (Staged.stage (fun () ->
           let engine = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
           ignore (Extract.round engine)))
  in
  let mmwc_graph =
    Css_mmwc.Digraph.make ~n:50
      (List.init 200 (fun i -> (i mod 50, i * 7 mod 50, float_of_int (i mod 13) -. 6.0)))
  in
  let test_karp =
    Test.make ~name:"Karp min-mean cycle (50v/200e)"
      (Staged.stage (fun () -> ignore (Css_mmwc.Karp.min_mean_cycle mmwc_graph)))
  in
  let test_howard =
    Test.make ~name:"Howard min-mean cycle (50v/200e)"
      (Staged.stage (fun () -> ignore (Css_mmwc.Howard.min_mean_cycle mmwc_graph)))
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ test_full_prop; test_incremental; test_cone; test_essential_round; test_karp; test_howard ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "%-44s %14s\n" "kernel" "ns/run";
  Printf.printf "------------------------------------------------------------\n";
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-44s %14.1f\n" name est
      | Some [] | None -> Printf.printf "%-44s %14s\n" name "n/a")
    results

let () =
  Printf.printf "Clock skew scheduling benchmark harness\n";
  Printf.printf "(paper: A Fast, Iterative Clock Skew Scheduling Algorithm with Dynamic\n";
  Printf.printf " Sequential Graph Extraction, DAC 2025 — synthetic reproduction)\n";
  if Sys.getenv_opt "CSS_BENCH_PAPER_ONLY" <> None then write_json (paper_scale ())
  else if Sys.getenv_opt "CSS_BENCH_JSON_ONLY" <> None then bench_json ()
  else begin
    let all = table_i () in
    summary all;
    fig8 ();
    fig2 ();
    bench_json ();
    optimality_gap ();
    ablations ();
    extensions ();
    if Sys.getenv_opt "CSS_BENCH_SKIP_BECHAMEL" = None then bechamel_kernels ()
  end;
  Printf.printf "\ndone.\n"
