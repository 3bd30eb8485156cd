(* The paper-reproduction harness: regenerates every evaluation artifact
   of the paper on the synthetic superblue-like suite. Timing for
   performance work is perfbench's job (perfbench/README.md); the
   seconds printed here are plain wall-clock of a dev build.

     TABLE I   — per-benchmark comparison of FPM, Ours-Early, IC-CSS+ and
                 Ours against the initial ("Contest 1st") state, with the
                 paper's columns: early/late WNS+TNS, CSS/OPT/total
                 runtime, #extracted edges, HPWL increase.
     SUMMARY   — the paper's aggregate rows: average improvements, CSS
                 speedup, total speedup, extracted-edge reduction.
     FIG 8     — the per-iteration WNS/TNS trajectory on sb18.
     FIG 2     — extraction-engine comparison (essential vs IC-CSS
                 callback vs full) on one design, with sequential vs
                 parallel and cold vs warm-cache extraction times.
     OPTIMALITY, ABLATIONS, EXTENSIONS — the DESIGN.md section 5/6
                 studies.
     PAPER SCALE — Flow.run on the ~1M-cell "-paper" variants (only).

   Environment:
     CSS_BENCH_SCALE   scale factor on benchmark sizes (default 1.0)
     CSS_BENCH_FAST    if set, only sb18 and sb16 are run in Table I
     CSS_BENCH_SEEDS   replicate each benchmark with N extra seeds and
                       report mean values in Table I (default 1)
     CSS_BENCH_CSV     write the Table I rows to this CSV file
     CSS_BENCH_PAPER_ONLY  if set, run only the paper-scale section
     CSS_BENCH_PAPER_DESIGNS comma-separated designs for the paper-scale
                           section (default sb18-paper)
     CSS_BENCH_JSON    where the paper-scale section writes its Obs stats
                       dump (default BENCH_css.json) *)

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

let jobs = Css_util.Pool.default_jobs ()

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

(* Edge and cone-node counts come from the first round on the initial
   state; the timing columns run each engine until quiet: sequentially,
   on [jobs] worker domains, and cold then warm through the cache. *)
let fig2 () =
  section "FIG 2 — sequential graph extraction: essential vs IC-CSS vs full";
  let p = sb18 () in
  let t =
    Table.create
      [ "engine"; "#edges extracted"; "gate-level nodes walked"; "scope"; "seq ms";
        Printf.sprintf "par ms @%d" jobs; "cold ms"; "warm ms"; "hit ratio" ]
  in
  Table.set_aligns t
    Table.[ Left; Right; Right; Left; Right; Right; Right; Right; Right ];
  let pool = if jobs > 1 then Some (Css_util.Pool.create ~jobs ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Css_util.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (name, engine, scope) ->
      let design = Generator.generate p in
      let timer = Timer.build design in
      let verts = Vertex.of_design design in
      let eng = Extract.run ~engine timer verts ~corner:Timer.Late in
      (* the full engine extracts everything up front *)
      if engine <> Extract.Full then ignore (Extract.round eng);
      let st = Extract.stats eng in
      let seq_ms = time_extraction p engine in
      let par_ms = if pool = None then seq_ms else time_extraction ?pool p engine in
      let cold_ms, warm_ms, hit_ratio = cache_cold_warm p engine in
      Table.add_row t
        [ name; string_of_int st.Extract.edges_extracted; string_of_int st.Extract.cone_nodes;
          scope; Printf.sprintf "%.1f" seq_ms; Printf.sprintf "%.1f" par_ms;
          Printf.sprintf "%.1f" cold_ms; Printf.sprintf "%.1f" warm_ms;
          Printf.sprintf "%.3f" hit_ratio ])
    [
      ("iterative essential (ours)", Extract.Essential, "only negative edges");
      ("IC-CSS callback [Albrecht]", Extract.Iccss, "all edges of critical vertices");
      ("full extraction", Extract.Full, "everything");
    ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* PAPER SCALE — end-to-end Flow.run at superblue cell counts          *)

(* The curves the paper draws (CSS speedup, essential-edge ratio) are
   measured on 0.77M-1.9M-cell designs; this section reproduces them on
   the "-paper" profile variants (Profile.paper). One row per design:
   the full flow wall-clock, the throughput it implies (cells/sec), the
   process peak RSS, and the extraction-engine edge ratio measured on
   the initial (pre-schedule) state — the number Fig. 2 is about. The
   flows share one Obs context, whose stats dump (spans, counters,
   histograms; diffable with css_stats) goes to CSS_BENCH_JSON. *)

module Obs = Css_util.Obs

let json_path =
  match Sys.getenv_opt "CSS_BENCH_JSON" with Some p -> p | None -> "BENCH_css.json"

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
  let obs = Obs.create () in
  List.iter
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
        ])
    paper_designs;
  Table.print t;
  Obs.write_json obs json_path;
  Printf.printf "wrote %s (Obs stats dump)\n%!" json_path

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

let () =
  Printf.printf "Clock skew scheduling benchmark harness\n";
  Printf.printf "(paper: A Fast, Iterative Clock Skew Scheduling Algorithm with Dynamic\n";
  Printf.printf " Sequential Graph Extraction, DAC 2025 — synthetic reproduction)\n";
  if Sys.getenv_opt "CSS_BENCH_PAPER_ONLY" <> None then paper_scale ()
  else begin
    let all = table_i () in
    summary all;
    fig8 ();
    fig2 ();
    optimality_gap ();
    ablations ();
    extensions ()
  end;
  Printf.printf "\ndone.\n"
