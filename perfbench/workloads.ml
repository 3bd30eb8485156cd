(* The three workloads. Each runs one untimed warm-up pass, then timed
   passes (with [Gc.compact ()] before each) until its time is spent,
   and checks the outputs only after timing. Every timed unit (a design,
   a request) runs between two runs of the reference kernel, and its
   times are reported in reference seconds. A traced run splits its
   time between untraced passes (the reference for the tracing
   overhead) and traced passes, whose layer times come from the
   benchmark's own clocks around public calls. *)

module Wall_clock = Css_util.Wall_clock
module Rusage = Css_util.Rusage
module Obs = Css_util.Obs
module Json = Css_util.Json
module Diag = Css_util.Diag
module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Timer = Css_sta.Timer
module Extract = Css_seqgraph.Extract
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Evaluator = Css_eval.Evaluator
module Session = Css_flow.Session
module Flow = Css_flow.Flow
module Persist = Css_flow.Persist
module Oracles = Css_oracle.Oracles

let metric = Ledger.metric
let now = Wall_clock.now

let clocked f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let parse text = Io.of_string_exn ~library:Inputs.library text

(* {1 Reference-speed timing} *)

(* Kernel runs of the current pass: their seconds and minor words are
   kept out of the pass's wall and allocation, and their times set the
   pass's speed. [last_kernel] is the run just before the next unit. *)
let kernel_times = ref []
let kernel_words = ref 0.0
let last_kernel = ref Reference.nominal

(* Off during the warm-up pass, so the kernel's heap stays out of the
   peak RSS read after it. *)
let pacing = ref true

let kernel () =
  let w0 = Gc.minor_words () in
  let dt = Reference.run () in
  kernel_words := !kernel_words +. (Gc.minor_words () -. w0);
  kernel_times := dt :: !kernel_times;
  last_kernel := dt;
  dt

(* [paced f] runs the unit [f], then the kernel, and returns [f]'s
   result with the factor that turns wall seconds measured inside [f]
   into reference seconds: the nominal kernel time over the mean of the
   kernel runs on either side of the unit. *)
let paced f =
  if not !pacing then (f (), 1.0)
  else begin
    let before = !last_kernel in
    let r = f () in
    let after = kernel () in
    (r, Reference.nominal /. ((before +. after) /. 2.0))
  end

(* {1 Passes} *)

type 'a pass = {
  value : 'a;
  wall : float;  (** seconds, kernel runs excluded *)
  ref_wall : float;  (** [wall] in reference seconds, by the pass's mean kernel time *)
  minor_mw : float;
  major : int;
}

(* One pass: a kernel run to read the machine's speed before the first
   unit, [Gc.compact ()], then [f], whose units are [paced]. *)
let measure f =
  kernel_times := [];
  let k0 = kernel () in
  Gc.compact ();
  kernel_words := 0.0;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let value = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let ks = !kernel_times in
  let wall = t1 -. t0 -. (List.fold_left ( +. ) 0.0 ks -. k0) in
  let mean_k = Ledger.mean (Array.of_list ks) in
  {
    value;
    wall;
    ref_wall = wall *. Reference.nominal /. mean_k;
    minor_mw = (g1.Gc.minor_words -. g0.Gc.minor_words -. !kernel_words) /. 1e6;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* The untimed warm-up pass, with no kernel runs; returns [f]'s value
   and its wall. *)
let warm_up f =
  pacing := false;
  Fun.protect ~finally:(fun () -> pacing := true) (fun () -> clocked f)

(* Timed passes of [f] until [seconds] have elapsed, and at least
   [min_passes]. *)
let passes ~seconds ~min_passes f =
  let t_end = now () +. seconds in
  let rec go acc k =
    if k >= min_passes && now () >= t_end then Array.of_list (List.rev acc)
    else go (measure f :: acc) (k + 1)
  in
  go [] 0

let min_passes = 3

let med f ps = Ledger.median (Array.map f ps)

(* A pass times several units (designs, requests); [unit_medians f ps]
   sums each unit's median over the passes, so a slow stretch of the
   machine that hits one unit in one pass is discarded with it. *)
let unit_medians f ps =
  let units = Array.map (fun p -> Array.of_list (f p)) ps in
  let sum = ref 0.0 in
  Array.iteri (fun i _ -> sum := !sum +. med (fun u -> u.(i)) units) units.(0);
  !sum

(* {1 Shared metrics} *)

type slacks = { wns_e : float; tns_e : float; wns_l : float; tns_l : float }

let timer_slacks t =
  {
    wns_e = Timer.wns t Timer.Early;
    tns_e = Timer.tns t Timer.Early;
    wns_l = Timer.wns t Timer.Late;
    tns_l = Timer.tns t Timer.Late;
  }

let report_slacks (r : Evaluator.report) =
  {
    wns_e = r.Evaluator.wns_early;
    tns_e = r.Evaluator.tns_early;
    wns_l = r.Evaluator.wns_late;
    tns_l = r.Evaluator.tns_late;
  }

let sum_slacks = List.fold_left
    (fun a s ->
      { wns_e = a.wns_e +. s.wns_e; tns_e = a.tns_e +. s.tns_e;
        wns_l = a.wns_l +. s.wns_l; tns_l = a.tns_l +. s.tns_l })
    { wns_e = 0.0; tns_e = 0.0; wns_l = 0.0; tns_l = 0.0 }

(* TNS gains sum over every violating endpoint, so they are gated. WNS
   gains hang on a single worst path (late WNS often on an unfixable
   port path, so its gain reads 0 on many designs, and a gated metric
   must never read 0), and are only reported. *)
let gain_metrics ~before ~after =
  let g b a = Ledger.gain_pct ~before:b ~after:a in
  [
    metric "late_tns_gain_pct" "%" (g before.tns_l after.tns_l);
    metric "early_tns_gain_pct" "%" (g before.tns_e after.tns_e);
  ]

let wns_note ~before ~after =
  Printf.sprintf "quality: late_wns_gain_pct %.4f %%, early_wns_gain_pct %.4f %%"
    (Ledger.gain_pct ~before:before.wns_l ~after:after.wns_l)
    (Ledger.gain_pct ~before:before.wns_e ~after:after.wns_e)

(* [peak_rss] is sampled right after the warm-up pass: before any
   reference kernel has run, and before the correctness checks can raise
   it. *)
let end_to_end ~setup ~run ~peak_rss ~before ~after tally =
  [ metric "setup_s" "s" setup; metric "run_s" "s" run; metric "peak_rss_mb" "MB" peak_rss ]
  @ gain_metrics ~before ~after
  @ [ metric "ok_frac" "ratio" (1.0 -. Ledger.failed_frac tally) ]

let peak_rss_mb () = float_of_int (Rusage.peak_rss_bytes ()) /. 1e6

(* The per-layer metric list is the same for every workload. *)
let layer_names =
  [
    ("io.parse_s", "s"); ("timer.build_s", "s"); ("session.open_s", "s");
    ("extract.self_s", "s"); ("extract.alloc_mw", "Mword"); ("extract.rounds", "count");
    ("extract.edges", "count"); ("extract.cone_nodes", "count");
    ("sched.self_s", "s"); ("sched.alloc_mw", "Mword"); ("sched.iterations", "count");
    ("sched.cycle_iters", "count"); ("sched.tail_iters", "count"); ("sched.ms_per_iter", "ms");
    ("cache.hit_ratio", "ratio"); ("cache.misses", "count");
    ("flow.css_s", "s"); ("flow.opt_s", "s"); ("flow.score_s", "s"); ("flow.finish_s", "s");
    ("opt.reconnected", "count"); ("opt.moves_accepted", "count");
    ("eco.css_ms", "ms"); ("eco.opt_ms", "ms"); ("eco.incremental_frac", "ratio");
    ("eco.iters_per_request", "count");
    ("persist.request_ms", "ms"); ("persist.write_ms", "ms");
    ("persist.writes_per_request", "count"); ("persist.ckpt_bytes", "B");
    ("persist.reopen_ms", "ms");
    ("gc.minor_mw", "Mword"); ("gc.major_collections", "count");
    ("residual_s", "s"); ("trace.overhead_pct", "%");
  ]

(* Traced against untraced median pass wall in reference seconds, in
   percent. *)
let overhead_pct ~untraced ~traced =
  let wall ps = med (fun p -> p.ref_wall) ps in
  100.0 *. ((wall traced /. wall untraced) -. 1.0)

(* Each named layer's median over the traced passes. *)
let median_layers traced ledger =
  List.map (fun (k, _) -> (k, med (fun p -> List.assoc k (ledger p)) traced)) (ledger traced.(0))

type outcome = {
  tally : Ledger.tally;
  metrics : Ledger.metric list;
  absent : string list;
      (** layers the workload does not measure: 0 in the JSON line, named
          absent in the table *)
  notes : string list;  (** human-readable lines printed before the result *)
}

(* A traced run's outcome: every per-layer metric, from [values] where
   the workload measures it. *)
let layer_outcome tally values notes =
  {
    tally;
    metrics =
      List.map
        (fun (name, unit_) ->
          metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.0))
        layer_names;
    absent = List.filter (fun name -> not (List.mem_assoc name values)) (List.map fst layer_names);
    notes;
  }

(* A traced run gives half its time to untraced passes, the reference for
   the tracing overhead, and half to traced ones. *)
let share ~trace seconds = if trace then Float.max 1.0 (seconds /. 2.0) else seconds

let gc_layers ps =
  [ ("gc.minor_mw", med (fun p -> p.minor_mw) ps);
    ("gc.major_collections", med (fun p -> float_of_int p.major) ps) ]

(* The traced passes' median residual, and a line saying what share of
   the pass wall the layers leave unexplained. *)
let residual_of traced ledger =
  let each f = Ledger.median (Array.map (fun p -> f ~wall:p.wall (ledger p)) traced) in
  ( each Ledger.residual,
    Printf.sprintf "ledger: the layers leave %.2f%% of the traced pass wall unexplained (median of %d passes)"
      (100.0 *. each Ledger.residual_share) (Array.length traced) )

(* {1 css-suite: Algorithm 1 alone} *)

(* Per-pass layer accumulators for the traced css-suite pass. *)
type css_trace = {
  mutable parse_s : float;
  mutable build_s : float;
  mutable ext_s : float;
  mutable ext_mw : float;
  mutable sch_s : float;
  mutable sch_mw : float;
  mutable rounds : int;
  mutable edges : int;
  mutable cone_nodes : int;
  mutable iters : int;
  mutable cycle_iters : int;
  mutable tail_iters : int;
}

let css_trace () =
  { parse_s = 0.0; build_s = 0.0; ext_s = 0.0; ext_mw = 0.0; sch_s = 0.0; sch_mw = 0.0;
    rounds = 0; edges = 0; cone_nodes = 0; iters = 0; cycle_iters = 0; tail_iters = 0 }

(* Iterations after the last one that improved TNS at the scheduled
   corner: the run's unproductive tail. *)
let tail_iters (r : Scheduler.result) ~corner ~tns0 =
  let tns (it : Scheduler.iteration) =
    match corner with Timer.Late -> it.Scheduler.tns_late | Timer.Early -> it.Scheduler.tns_early
  in
  let best = ref tns0 and last = ref 0 in
  List.iter
    (fun it -> if tns it > !best then begin best := tns it; last := it.Scheduler.index end)
    r.Scheduler.trace;
  r.Scheduler.iterations - !last

let css_corners = [ Timer.Late; Timer.Early ]

(* Schedule one corner: [Engine.ours] plus [Scheduler.run]. Traced, the
   extraction closure is wrapped so its time and allocation split from
   the scheduler's own. *)
let css_schedule ?trace timer ~corner =
  match trace with
  | None ->
    let extraction, _ = Engine.ours timer ~corner in
    ignore (Scheduler.run timer extraction)
  | Some tr ->
    let tns0 = Timer.tns timer corner in
    let w_start = Gc.minor_words () in
    let t_start = now () in
    let (extraction, stats), dt = clocked (fun () -> Engine.ours timer ~corner) in
    let ext_s = ref dt and ext_w = ref (Gc.minor_words () -. w_start) in
    let extract () =
      let w0 = Gc.minor_words () and t0 = now () in
      let n = extraction.Scheduler.extract () in
      ext_s := !ext_s +. (now () -. t0);
      ext_w := !ext_w +. (Gc.minor_words () -. w0);
      n
    in
    let r = Scheduler.run timer { extraction with Scheduler.extract } in
    let total_s = now () -. t_start and total_w = Gc.minor_words () -. w_start in
    tr.ext_s <- tr.ext_s +. !ext_s;
    tr.ext_mw <- tr.ext_mw +. (!ext_w /. 1e6);
    tr.sch_s <- tr.sch_s +. (total_s -. !ext_s);
    tr.sch_mw <- tr.sch_mw +. ((total_w -. !ext_w) /. 1e6);
    tr.rounds <- tr.rounds + stats.Extract.rounds;
    tr.edges <- tr.edges + stats.Extract.edges_extracted;
    tr.cone_nodes <- tr.cone_nodes + stats.Extract.cone_nodes;
    tr.iters <- tr.iters + r.Scheduler.iterations;
    tr.cycle_iters <- tr.cycle_iters + r.Scheduler.cycles_handled;
    tr.tail_iters <- tr.tail_iters + tail_iters r ~corner ~tns0


let pass_note name ps =
  let show f = String.concat " " (Array.to_list (Array.map (fun p -> Printf.sprintf "%.3f" (f p)) ps)) in
  Printf.sprintf "%s: %d timed passes, wall [%s] s, in reference seconds [%s]" name
    (Array.length ps) (show (fun p -> p.wall)) (show (fun p -> p.ref_wall))

(* One pass over the suite; returns (setup, run) per design, in
   reference seconds. *)
let css_pass ?trace texts =
  List.map
    (fun (_, text) ->
      let (tp, tb, ts), scale =
        paced (fun () ->
            let design, tp = clocked (fun () -> parse text) in
            let timer, tb = clocked (fun () -> Timer.build design) in
            let (), ts =
              clocked (fun () ->
                  List.iter (fun corner -> css_schedule ?trace timer ~corner) css_corners)
            in
            (tp, tb, ts))
      in
      Option.iter (fun tr -> tr.parse_s <- tr.parse_s +. tp; tr.build_s <- tr.build_s +. tb) trace;
      (scale *. (tp +. tb), scale *. ts))
    texts

(* The warm-up pass does a timed pass's work and keeps what the checks
   need: each design's slacks before and after, and its scheduled state
   as text. *)
let css_warmup texts =
  List.map
    (fun (name, text) ->
      let design = parse text in
      let timer = Timer.build design in
      let before = timer_slacks timer in
      List.iter (fun corner -> css_schedule timer ~corner) css_corners;
      (name, before, timer_slacks timer, Io.to_string design))
    texts

(* One checked operation per corner: the feasibility oracle's audit of
   a scheduled design. *)
let css_audit tally ~name design =
  List.fold_left
    (fun tally corner ->
      Ledger.record tally
        (List.map (Printf.sprintf "%s: %s" name) (Oracles.check_feasible design ~corner)))
    tally css_corners

let css_suite ~seed ~seconds ~trace =
  let texts, t_inputs = clocked Inputs.css_suite in
  let outputs, t_warm = warm_up (fun () -> css_warmup texts) in
  let peak_rss = peak_rss_mb () in
  (* the warm-up visits the designs in preset order, so the peak RSS does
     not depend on the seed; the timed passes in the seed's order *)
  let texts = Inputs.shuffle ~seed texts in
  let untraced =
    passes ~seconds:(share ~trace seconds) ~min_passes (fun () ->
        css_pass texts)
  in
  let tally, t_checks =
    clocked (fun () ->
        List.fold_left
          (fun tally (name, _, _, text) -> css_audit tally ~name (parse text))
          Ledger.empty_tally outputs)
  in
  let before = sum_slacks (List.map (fun (_, b, _, _) -> b) outputs) in
  let after = sum_slacks (List.map (fun (_, _, a, _) -> a) outputs) in
  if not trace then
    {
      tally;
      absent = [];
      metrics =
        end_to_end
          ~setup:(unit_medians (fun p -> List.map fst p.value) untraced)
          ~run:(unit_medians (fun p -> List.map snd p.value) untraced)
          ~peak_rss ~before ~after tally;
      notes =
        [
          Printf.sprintf "css-suite: inputs %.2f s, warm-up %.2f s, checks %.2f s" t_inputs t_warm
            t_checks;
          pass_note "css-suite" untraced;
          wns_note ~before ~after;
        ];
    }
  else begin
    let traced =
      passes ~seconds:(share ~trace seconds) ~min_passes (fun () ->
          let tr = css_trace () in
          ignore (css_pass ~trace:tr texts);
          tr)
    in
    let t f = med (fun p -> f p.value) traced in
    let ti f = t (fun tr -> float_of_int (f tr)) in
    let ledger p =
      let tr = p.value in
      [ ("io.parse_s", tr.parse_s); ("timer.build_s", tr.build_s);
        ("extract.self_s", tr.ext_s); ("sched.self_s", tr.sch_s) ]
    in
    let residual, note = residual_of traced ledger in
    let values =
      median_layers traced ledger
      @ [
          ("extract.alloc_mw", t (fun tr -> tr.ext_mw));
          ("extract.rounds", ti (fun tr -> tr.rounds));
          ("extract.edges", ti (fun tr -> tr.edges));
          ("extract.cone_nodes", ti (fun tr -> tr.cone_nodes));
          ("sched.alloc_mw", t (fun tr -> tr.sch_mw));
          ("sched.iterations", ti (fun tr -> tr.iters));
          ("sched.cycle_iters", ti (fun tr -> tr.cycle_iters));
          ("sched.tail_iters", ti (fun tr -> tr.tail_iters));
          ("sched.ms_per_iter", t (fun tr -> 1000.0 *. tr.sch_s /. float_of_int (max 1 tr.iters)));
          ("residual_s", residual);
          ("trace.overhead_pct", overhead_pct ~untraced ~traced);
        ]
      @ gc_layers traced
    in
    layer_outcome tally values [ note ]
  end

(* {1 flow-sb18: batch sign-off} *)

let flow_config ~obs = { Session.default_config with Session.jobs = 1; obs; checkpoint_dir = None }

(* One design's sign-off within a pass. *)
type flow_run = {
  f_parse : float;
  f_open : float;
  f_steps : float;  (** summed [Session.step] wall *)
  f_finish : float;
  f_result : Session.result;
  f_cache : Session.cache_stats option;
  f_scale : float;  (** wall to reference seconds, from [paced] *)
}

let flow_run ~obs text =
  let design, f_parse = clocked (fun () -> parse text) in
  let s, f_open =
    clocked (fun () -> Session.open_ ~config:(flow_config ~obs) ~algo:Session.Ours design)
  in
  let rec drain acc =
    match clocked (fun () -> Session.step s) with
    | `Done, dt -> acc +. dt
    | `Phase _, dt -> drain (acc +. dt)
  in
  let f_steps = drain 0.0 in
  let f_result, f_finish = clocked (fun () -> Session.finish s) in
  let f_cache = Session.cache_stats s in
  Session.close s;
  { f_parse; f_open; f_steps; f_finish; f_result; f_cache; f_scale = 1.0 }

(* A pass signs off every design of the workload in turn, one paced unit
   each. *)
let flow_pass ~traced texts =
  let obs = if traced then Obs.create () else Obs.null in
  ( List.map
      (fun text ->
        let r, f_scale = paced (fun () -> flow_run ~obs text) in
        { r with f_scale })
      texts,
    obs )

let flow_sum f p = List.fold_left (fun acc r -> acc +. f r) 0.0 (fst p.value)
let flow_setup p = List.map (fun r -> r.f_scale *. (r.f_parse +. r.f_open)) (fst p.value)
let flow_run_s p = List.map (fun r -> r.f_scale *. (r.f_steps +. r.f_finish)) (fst p.value)
let flow_reports p = List.map (fun r -> r.f_result.Session.report) (fst p.value)

(* Every sign-off must satisfy the contest constraints and reproduce the
   first pass's report exactly. *)
let flow_check ps =
  let first = flow_reports ps.(0) in
  Array.fold_left
    (fun tally p ->
      List.fold_left2
        (fun tally r r0 ->
          Ledger.record tally
            (r.Evaluator.constraint_errors
            @ if r = r0 then [] else [ "sign-off report differs between passes" ]))
        tally (flow_reports p) first)
    Ledger.empty_tally ps

let counter obs name = float_of_int (Obs.value (Obs.counter obs name))

let cache_layers = function
  | None -> [ ("cache.hit_ratio", 0.0); ("cache.misses", 0.0) ]
  | Some (c : Session.cache_stats) ->
    let hits = c.Session.cache_hits and misses = c.Session.cache_misses in
    [
      ("cache.hit_ratio",
       if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses));
      ("cache.misses", float_of_int misses);
    ]

let add_cache a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (a : Session.cache_stats), Some (b : Session.cache_stats) ->
    Some
      {
        a with
        Session.cache_hits = a.Session.cache_hits + b.Session.cache_hits;
        cache_misses = a.Session.cache_misses + b.Session.cache_misses;
      }

let flow_sb18 ~seed ~seconds ~trace =
  let texts = Inputs.flow_designs () in
  let before = sum_slacks (List.map (fun t -> report_slacks (Evaluator.evaluate (parse t))) texts) in
  ignore (warm_up (fun () -> flow_pass ~traced:false texts));
  let peak_rss = peak_rss_mb () in
  (* as in css-suite: the warm-up in fixed order, timed passes in the
     seed's *)
  let texts = Inputs.shuffle ~seed texts in
  let untraced =
    passes ~seconds:(share ~trace seconds) ~min_passes (fun () ->
        flow_pass ~traced:false texts)
  in
  let tally = flow_check untraced in
  let after = sum_slacks (List.map report_slacks (flow_reports untraced.(0))) in
  if not trace then
    {
      tally;
      absent = [];
      metrics =
        end_to_end ~setup:(unit_medians flow_setup untraced)
          ~run:(unit_medians flow_run_s untraced) ~peak_rss
          ~before ~after tally;
      notes = [ pass_note "flow-sb18" untraced; wns_note ~before ~after ];
    }
  else begin
    let traced =
      passes ~seconds:(share ~trace seconds) ~min_passes (fun () -> flow_pass ~traced:true texts)
    in
    let ledger p =
      let sum f = flow_sum f p in
      let css r = r.f_result.Session.css_seconds and opt r = r.f_result.Session.opt_seconds in
      [
        ("io.parse_s", sum (fun r -> r.f_parse)); ("session.open_s", sum (fun r -> r.f_open));
        ("flow.css_s", sum css); ("flow.opt_s", sum opt);
        ("flow.score_s", sum (fun r -> r.f_steps -. css r -. opt r));
        ("flow.finish_s", sum (fun r -> r.f_finish));
      ]
    in
    let residual, note = residual_of traced ledger in
    let runs, obs = traced.(Array.length traced - 1).value in
    let count f = float_of_int (List.fold_left (fun acc r -> acc + f r.f_result) 0 runs) in
    let values =
      median_layers traced ledger
      @ [
          ("extract.edges", count (fun r -> r.Session.extracted_edges));
          ("extract.cone_nodes", count (fun r -> r.Session.cone_nodes));
          ("sched.iterations", count (fun r -> r.Session.css_iterations));
          ("opt.reconnected", counter obs "opt.reconnect.reconnected");
          ("opt.moves_accepted", counter obs "opt.cell_move.moves_accepted");
          ("residual_s", residual);
          ("trace.overhead_pct", overhead_pct ~untraced ~traced);
        ]
      @ cache_layers (List.fold_left (fun acc r -> add_cache acc r.f_cache) None runs)
      @ gc_layers traced
    in
    layer_outcome tally values [ note ]
  end

(* {1 eco-sb18: durable ECO service} *)

(* Requests per pass, and a session restart after every
   [restart_every]. Every pass serves the same block, the head of the
   seeded stream, so a faster build times the same requests as a slower
   one. *)
let eco_block = 6
let restart_every = 3

(* the daemon's session settings *)
let eco_config ~obs ~dir =
  {
    Session.default_config with
    Session.jobs = 1;
    obs;
    final_eval = false;
    rollback = false;
    cache_bytes = 64 * 1024 * 1024;
    checkpoint_dir = dir;
  }

let scratch_root = ".bench_tmp"

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir =
  let k = ref 0 in
  fun () ->
    if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
    incr k;
    let dir = Filename.concat scratch_root (Printf.sprintf "eco-%d-%d" (Unix.getpid ()) !k) in
    if Sys.file_exists dir then remove_tree dir;
    Sys.mkdir dir 0o755;
    dir

let latency_bits design =
  Array.map
    (fun ff -> Int64.bits_of_float (Design.scheduled_latency design ff))
    (Design.ffs design)

(* A text round-trip of [design] that keeps its movement anchors, so a
   fresh run on it judges cell moves as the live session does. *)
let clone_anchored design =
  let c = Session.clone design in
  for i = 0 to Design.num_cells design - 1 do
    Design.set_cell_orig_pos c i (Design.cell_orig_pos design i)
  done;
  c

(* The last answer of a stream must be bitwise what a fresh run computes
   on the post-request design, as [Oracles.check_eco_identity] demands:
   [cold] is the design before the request, [config] the session's. *)
let eco_identity ~config cold delta answer =
  match
    Session.stage ~validate:config.Session.validate ~repair:config.Session.repair
      ~timer:config.Session.timer cold [ delta ]
  with
  | Error _ -> [ "reference stage rejected the last request" ]
  | Ok sg ->
    let config =
      { config with Session.checkpoint_dir = None; obs = Obs.null; timer = sg.Session.sg_timer }
    in
    ignore (Flow.run ~config ~algo:Flow.Ours sg.Session.sg_design);
    if latency_bits sg.Session.sg_design = answer then []
    else [ "last request: latencies differ from a fresh run on the post-request design" ]

type eco_pass = {
  e_setup : float;  (** parse + open + first full schedule *)
  e_setup_ref : float;  (** [e_setup] in reference seconds *)
  e_units_ref : float list;  (** per request, its restart included, in reference seconds *)
  e_latency_ref : float array;  (** per-request wall in reference seconds *)
  e_answers : string list list;  (** per request: [[]] or the rejection *)
  e_restarts : (int * int64 array * int64 array) list;
      (** per restart: request index, latencies held, latencies resumed *)
  e_reference : (unit -> string list) option;  (** deferred identity check *)
  e_css : float;  (** summed over requests *)
  e_opt : float;
  e_iters : int;
  e_incremental : int;
  e_edges : int;
  e_cone_nodes : int;
  e_persist_write : float;  (** checkpoint write seconds during the block *)
  e_persisted : float;  (** checkpoint writes during the block *)
  e_reopen : float array;
  e_ckpt_bytes : int;
  e_cache : Session.cache_stats option;  (** summed over the block's sessions *)
  e_initial : Evaluator.report;  (** the first full schedule's report *)
}

let checkpoint_write_seconds obs =
  List.fold_left
    (fun acc (label, _, fields) ->
      match (label, List.assoc_opt "write_seconds" fields) with
      | "flow.checkpoint", Some (Json.Float s) -> acc +. s
      | _ -> acc)
    0.0 (Obs.snapshots obs)

(* One pass: open a durable session on the input design and schedule it
   (one paced unit), then serve the block of requests, one paced unit
   each, dropping the session and reopening it from its checkpoint
   after every [restart_every] requests. With [persist:false] the same
   block runs with no checkpoint directory and no restarts. With
   [reference] the last answer is kept for the identity check. *)
let eco_pass ~persist ~traced ~reference text deltas =
  let obs = if traced then Obs.create () else Obs.null in
  let dir = if persist then Some (fresh_dir ()) else None in
  let config = eco_config ~obs ~dir in
  let (s, e_initial, e_setup), setup_scale =
    paced (fun () ->
        let t0 = now () in
        let s = Session.open_ ~config ~algo:Session.Ours (parse text) in
        let initial = (Session.finish s).Session.report in
        (s, initial, now () -. t0))
  in
  let written0 = checkpoint_write_seconds obs and persisted0 = counter obs "flow.persisted" in
  let session = ref s and cache = ref None and restarts = ref [] and reopen = ref [] in
  let css = ref 0.0 and opt = ref 0.0 and iters = ref 0 and incremental = ref 0 in
  let edges = ref 0 and cones = ref 0 and check = ref None in
  let n = Array.length deltas in
  (* the request, then the restart when one is due; returns the answer
     and the wall of each *)
  let serve i delta =
    let r, dt = clocked (fun () -> Session.apply_delta !session [ delta ]) in
    let answer =
      match r with
      | Error ds -> [ "apply_delta: " ^ String.concat "; " (List.map Diag.to_string ds) ]
      | Ok o ->
        let res = o.Session.d_result in
        css := !css +. res.Session.css_seconds;
        opt := !opt +. res.Session.opt_seconds;
        iters := !iters + res.Session.css_iterations;
        edges := !edges + res.Session.extracted_edges;
        cones := !cones + res.Session.cone_nodes;
        if o.Session.d_mode = `Incremental then incr incremental;
        []
    in
    let restart =
      match dir with
      | Some dir when (i + 1) mod restart_every = 0 && i + 1 < n ->
        let held = latency_bits (Session.design !session) in
        let (), dr =
          clocked (fun () ->
              cache := add_cache !cache (Session.cache_stats !session);
              Session.close !session;
              match clocked (fun () -> Session.reopen ~config ~library:Inputs.library ~dir ()) with
              | Ok s', dt ->
                reopen := dt :: !reopen;
                session := s';
                restarts := (i, held, latency_bits (Session.design s')) :: !restarts
              | Error ds, _ ->
                failwith ("Session.reopen: " ^ String.concat "; " (List.map Diag.to_string ds)))
        in
        dr
      | _ -> 0.0
    in
    (answer, dt, restart)
  in
  let served =
    Array.mapi
      (fun i delta ->
        let cold =
          if reference && i = n - 1 then
            Some (clone_anchored (Session.design !session), Session.config !session)
          else None
        in
        let (answer, dt, restart), scale = paced (fun () -> serve i delta) in
        Option.iter
          (fun (cold, config) ->
            let answer = latency_bits (Session.design !session) in
            check := Some (fun () -> eco_identity ~config cold delta answer))
          cold;
        (answer, scale *. dt, scale *. (dt +. restart)))
      deltas
  in
  cache := add_cache !cache (Session.cache_stats !session);
  Session.close !session;
  let e_ckpt_bytes =
    match dir with Some dir -> (Unix.stat (Persist.path ~dir)).Unix.st_size | None -> 0
  in
  Option.iter
    (fun dir ->
      remove_tree dir;
      if Sys.readdir scratch_root = [||] then Sys.rmdir scratch_root)
    dir;
  let field f = Array.map f served in
  {
    e_setup;
    e_setup_ref = setup_scale *. e_setup;
    e_units_ref = Array.to_list (field (fun (_, _, u) -> u));
    e_latency_ref = field (fun (_, l, _) -> l);
    e_answers = Array.to_list (field (fun (a, _, _) -> a));
    e_restarts = List.rev !restarts;
    e_reference = !check;
    e_css = !css; e_opt = !opt; e_iters = !iters; e_incremental = !incremental;
    e_edges = !edges; e_cone_nodes = !cones;
    e_persist_write = checkpoint_write_seconds obs -. written0;
    e_persisted = counter obs "flow.persisted" -. persisted0;
    e_reopen = Array.of_list (List.rev !reopen);
    e_ckpt_bytes; e_cache = !cache; e_initial;
  }

(* Checked operations of a pass: every request, every restart, and the
   deferred identity check when the pass kept one. *)
let eco_audit tally p =
  let tally = List.fold_left Ledger.record tally p.e_answers in
  let tally =
    List.fold_left
      (fun tally (i, held, resumed) ->
        Ledger.record tally
          (if held = resumed then []
           else [ Printf.sprintf "restart after request %d: latencies not resumed bitwise" i ]))
      tally p.e_restarts
  in
  match p.e_reference with Some check -> Ledger.record tally (check ()) | None -> tally

let eco_sb18 ~seed ~seconds ~trace =
  let text, stream = Inputs.eco_inputs ~seed ~requests:eco_block in
  let block = Array.of_list stream in
  let before = timer_slacks (Timer.build (parse text)) in
  let pass ?(reference = false) ~persist ~traced () =
    eco_pass ~persist ~traced ~reference text block
  in
  let warm, _ = warm_up (pass ~reference:true ~persist:true ~traced:false) in
  let peak_rss = peak_rss_mb () in
  let untraced =
    passes ~seconds:(share ~trace seconds) ~min_passes (pass ~persist:true ~traced:false)
  in
  let tally =
    Array.fold_left (fun t p -> eco_audit t p) (eco_audit Ledger.empty_tally warm)
      (Array.map (fun p -> p.value) untraced)
  in
  (* quality: the session's first full schedule against its input *)
  let after = report_slacks warm.e_initial in
  if not trace then begin
    let latencies =
      Array.concat (Array.to_list (Array.map (fun p -> p.value.e_latency_ref) untraced))
    in
    let pct_note name p =
      match Ledger.percentile latencies ~p with
      | Some v ->
        Printf.sprintf "eco-sb18: %s %.3f reference ms over %d requests" name (1000.0 *. v)
          (Array.length latencies)
      | None ->
        Printf.sprintf "eco-sb18: %s withheld: fewer than %d of %d requests beyond it" name
          Ledger.min_beyond (Array.length latencies)
    in
    {
      tally;
      absent = [];
      metrics =
        end_to_end ~setup:(med (fun p -> p.value.e_setup_ref) untraced)
          ~run:(unit_medians (fun p -> p.value.e_units_ref) untraced) ~peak_rss ~before ~after
          tally;
      notes =
        [
          pass_note "eco-sb18" untraced;
          pct_note "request_p50_ms" 0.5;
          pct_note "request_p90_ms" 0.9;
          wns_note ~before ~after;
        ];
    }
  end
  else begin
    let traced =
      passes ~seconds:(share ~trace seconds) ~min_passes (pass ~persist:true ~traced:true)
    in
    (* the persistence cost: the same block served without checkpoints *)
    let volatile = Array.map (fun _ -> measure (pass ~persist:false ~traced:true)) traced in
    let ledger p =
      let v = p.value in
      [
        ("setup", v.e_setup); ("eco.css", v.e_css); ("eco.opt", v.e_opt);
        ("persist.write", v.e_persist_write);
        ("persist.reopen", Array.fold_left ( +. ) 0.0 v.e_reopen);
      ]
    in
    let residual, note = residual_of traced ledger in
    let per_request f ps = med (fun p -> f p.value /. float_of_int eco_block) ps in
    (* every pass serves the same block, so the counts repeat exactly *)
    let first = traced.(0).value in
    let count f = float_of_int (f first) in
    let per_block f = count f /. float_of_int eco_block in
    let sum_latency p = Array.fold_left ( +. ) 0.0 p.e_latency_ref in
    let values =
      [
        ("eco.css_ms", 1000.0 *. per_request (fun p -> p.e_css) traced);
        ("eco.opt_ms", 1000.0 *. per_request (fun p -> p.e_opt) traced);
        ("eco.incremental_frac", per_block (fun p -> p.e_incremental));
        ("eco.iters_per_request", per_block (fun p -> p.e_iters));
        ("extract.edges", count (fun p -> p.e_edges));
        ("extract.cone_nodes", count (fun p -> p.e_cone_nodes));
        ("sched.iterations", count (fun p -> p.e_iters));
        ("persist.request_ms",
         1000.0 *. (per_request sum_latency traced -. per_request sum_latency volatile));
        ("persist.write_ms", 1000.0 *. per_request (fun p -> p.e_persist_write) traced);
        ("persist.writes_per_request", first.e_persisted /. float_of_int eco_block);
        ("persist.ckpt_bytes", count (fun p -> p.e_ckpt_bytes));
        ("persist.reopen_ms",
         1000.0 *. Ledger.median (Array.concat (Array.to_list (Array.map (fun p -> p.value.e_reopen) traced))));
        ("residual_s", residual);
        ("trace.overhead_pct", overhead_pct ~untraced ~traced);
      ]
      @ cache_layers first.e_cache @ gc_layers traced
    in
    layer_outcome tally values [ note ]
  end

let all = [ ("flow-sb18", flow_sb18); ("css-suite", css_suite); ("eco-sb18", eco_sb18) ]
