module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Sdc = Css_netlist.Sdc
module Validate = Css_netlist.Validate
module Vertex = Css_seqgraph.Vertex
module Scheduler = Css_core.Scheduler
module Extract = Css_seqgraph.Extract
module Seq_graph = Css_seqgraph.Seq_graph
module Reconnect = Css_opt.Reconnect
module Cell_move = Css_opt.Cell_move
module Evaluator = Css_eval.Evaluator
module Wall_clock = Css_util.Wall_clock
module Diag = Css_util.Diag
module Obs = Css_util.Obs
module Budget = Css_util.Budget
module Point = Css_geometry.Point

let log_src = Logs.Src.create "css.session" ~doc:"resident clock-skew scheduling sessions"

module Log = (val Logs.src_log log_src : Logs.LOG)

type algo =
  | Ours
  | Ours_early
  | Iccss_plus
  | Fpm

let algo_name = function
  | Ours -> "Ours"
  | Ours_early -> "Ours-Early"
  | Iccss_plus -> "IC-CSS+"
  | Fpm -> "FPM"

let algo_of_name = function
  | "Ours" -> Some Ours
  | "Ours-Early" -> Some Ours_early
  | "IC-CSS+" -> Some Iccss_plus
  | "FPM" -> Some Fpm
  | _ -> None

type trace_point = Persist.trace_point = {
  round : int;
  phase : string;
  iter : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

type result = {
  algo : string;
  benchmark : string;
  report : Evaluator.report;
  css_seconds : float;
  opt_seconds : float;
  total_seconds : float;
  extracted_edges : int;
  cone_nodes : int;
  css_iterations : int;
  hpwl_increase_pct : float;
  stop_reason : string;
  rolled_back : bool;
  degradations : string list;
  resumed : bool;
  validation : Diag.t list;
  trace : trace_point list;
}

type config = {
  rounds : int;
  timer : Timer.config;
  use_resize : bool;
  use_cts : bool;
  validate : bool;
  repair : bool;
  rollback : bool;
  final_eval : bool;
  on_phase_end : (round:int -> phase:string -> Design.t -> unit) option;
  obs : Obs.t;
  jobs : int;  (* ignored *)
  budget : Budget.limits;
  cache_bytes : int;  (* ignored *)
  checkpoint_dir : string option;
  debug_interrupt_after_phase : int option;
  debug_interrupt_after_iteration : int option;
}

let default_config =
  {
    rounds = 3;
    timer = Timer.default_config;
    use_resize = false;
    use_cts = false;
    validate = true;
    repair = true;
    rollback = true;
    final_eval = true;
    on_phase_end = None;
    obs = Obs.null;
    jobs = 1;
    budget = Budget.no_limits;
    cache_bytes = 0;
    checkpoint_dir = None;
    debug_interrupt_after_phase = None;
    debug_interrupt_after_iteration = None;
  }

(* What a checkpoint carries of a config, and a config under a
   checkpoint's settings: the caller keeps only the process-local
   fields. *)
let settings (c : config) =
  {
    Persist.rounds = c.rounds;
    timer = c.timer;
    use_resize = c.use_resize;
    use_cts = c.use_cts;
    rollback = c.rollback;
    final_eval = c.final_eval;
    budget = c.budget;
  }

let with_settings (c : config) (s : Persist.settings) =
  {
    c with
    rounds = s.Persist.rounds;
    timer = s.Persist.timer;
    use_resize = s.Persist.use_resize;
    use_cts = s.Persist.use_cts;
    rollback = s.Persist.rollback;
    final_eval = s.Persist.final_eval;
    budget = s.Persist.budget;
  }

(* The text round trip keeps every float exactly; the movement anchors,
   which the text does not carry, are copied over. *)
let clone design =
  let copy = Io.of_string_exn ~library:(Design.library design) (Io.to_string design) in
  Design.iter_cells design (fun c ->
      Design.set_cell_orig_pos copy c (Design.cell_orig_pos design c));
  copy

(* Consecutive phases without live-timer worst-slack improvement before
   the flow stops with [stop_reason = "stalled"]. *)
let stall_phases = 4

(* {2 Engine slots}

   The extraction engines persist across rounds — the partial sequential
   graph keeps growing incrementally over the whole run, as in the paper,
   instead of being rebuilt per phase. A delta request drops them (their
   stored weights are stale against the edited design) and lets the next
   schedule re-extract against the warm timer. A slot's name keys its
   engine's snapshot in a checkpoint. *)
type slot = {
  name : string;
  kind : Extract.engine;
  corner : Timer.corner;
  mutable live : Extract.t option;
}

let slot_table () =
  List.map
    (fun (name, kind, corner) -> { name; kind; corner; live = None })
    [
      ("ours-early", Extract.Essential, Timer.Early);
      ("ours-late", Extract.Essential, Timer.Late);
      ("iccss-early", Extract.Iccss, Timer.Early);
      ("iccss-late", Extract.Iccss, Timer.Late);
    ]

let slot_names = List.map (fun s -> s.name) (slot_table ())

type t = {
  mutable cfg : config;  (* the [timer] sub-config can change via Apply_sdc *)
  algo : algo;
  engine0 : [ `Ours | `Iccss | `Fpm ];  (* the algorithm's native engine *)
  mutable timer : Timer.t;
      (* the one timer: scheduling, OPT, checkpoint scores and the
         sign-off all read it; replaced by the from-scratch fallback *)
  mutable journal : Persist.journal option;
      (* the checkpoint directory's base + journal, with [checkpoint_dir] *)
  mutable verts : Vertex.t;
  slots : slot list;
  budget : Budget.t option;  (* armed only when a limit is configured *)
  mutable css_clock : Wall_clock.t;
  mutable opt_clock : Wall_clock.t;
  mutable t0 : float;  (* start of the current run / delta request *)
  mutable run : Persist.progress;  (* everything a checkpoint carries about this run *)
  mutable hold_attempted : bool;
      (* at most one hold attempt per run; never persisted — a resumed run
         may retry a hold that an interrupt cut short *)
  mutable rung : int;  (* degradation-ladder position, 0 = full fidelity *)
  mutable iter_polls : int;  (* scheduler should_stop polls, for fault injection *)
  mutable resumed : bool;  (* the current run continues a loaded checkpoint *)
  mutable validation : Diag.t list;  (* ingress findings for the current design *)
  mutable closed : bool;
}

let design st = Timer.design st.timer
let timer st = st.timer
let config st = st.cfg
let algo st = st.algo

type cache_stats = {
  cache_hits : int;
  cache_rehash_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  cache_bytes_used : int;
}

(* No cache exists: the type and the accessor stay for callers built
   against the old surface. *)
let cache_stats (_ : t) : cache_stats option = None

let is_closed st = st.closed

let check_open st op =
  if st.closed then invalid_arg (Printf.sprintf "Session.%s: session is closed" op)

let snapshot_point st ~round ~phase ~iter =
  let pt =
    {
      round;
      phase;
      iter;
      wns_early = Timer.wns st.timer Timer.Early;
      tns_early = Timer.tns st.timer Timer.Early;
      wns_late = Timer.wns st.timer Timer.Late;
      tns_late = Timer.tns st.timer Timer.Late;
    }
  in
  st.run.trace_rev <- pt :: st.run.trace_rev;
  if Obs.enabled st.cfg.obs then
    Obs.snapshot st.cfg.obs ~label:"flow.point"
      [
        ("round", Obs.Json.Int round);
        ("phase", Obs.Json.String phase);
        ("iter", Obs.Json.Int iter);
        ("wns_early", Obs.Json.Float pt.wns_early);
        ("tns_early", Obs.Json.Float pt.tns_early);
        ("wns_late", Obs.Json.Float pt.wns_late);
        ("tns_late", Obs.Json.Float pt.tns_late);
      ]

let record_scheduler_trace st ~round ~phase (res : Scheduler.result) =
  List.iter
    (fun (it : Scheduler.iteration) ->
      st.run.trace_rev <-
        {
          round;
          phase;
          iter = it.Scheduler.index;
          wns_early = it.Scheduler.wns_early;
          tns_early = it.Scheduler.tns_early;
          wns_late = it.Scheduler.wns_late;
          tns_late = it.Scheduler.tns_late;
        }
        :: st.run.trace_rev)
    res.Scheduler.trace

(* One ["sched.phase"] snapshot per scheduler run: how the phase ended
   and how many of its iterations raised no latency. *)
let note_scheduler_phase st ~round ~phase (res : Scheduler.result) =
  let obs = st.cfg.obs in
  if Obs.enabled obs then begin
    let zero =
      List.length
        (List.filter
           (fun (it : Scheduler.iteration) ->
             (not it.Scheduler.handled_cycle) && it.Scheduler.max_increment <= Scheduler.eps)
           res.Scheduler.trace)
    in
    Obs.snapshot obs ~label:"sched.phase"
      [
        ("round", Obs.Json.Int round);
        ("corner", Obs.Json.String phase);
        ("stop_reason", Obs.Json.String (Scheduler.stop_reason_name res.Scheduler.stop_reason));
        ("iterations", Obs.Json.Int res.Scheduler.iterations);
        ("zero_increment_iterations", Obs.Json.Int zero);
        ("best_restored", Obs.Json.Bool res.Scheduler.best_restored);
      ]
  end

let targets_of verts latencies =
  let acc = ref [] in
  Array.iteri
    (fun v l ->
      if l > 1e-9 then
        match Vertex.ff_of verts v with
        | Some ff -> acc := (ff, l) :: !acc
        | None -> ())
    latencies;
  !acc

(* Stored weights go stale whenever the OPT passes change latencies or
   placement outside the scheduler's Eq. (10) bookkeeping; the timer
   re-derives them in one sweep at the start of each CSS phase. *)
let refresh_weights st graph = Seq_graph.refresh_weights graph st.timer

(* The live engine in [kind]'s slot for [corner], extracted from scratch
   on first use. *)
let engine_for st kind corner =
  let slot = List.find (fun s -> s.kind = kind && s.corner = corner) st.slots in
  match slot.live with
  | Some e -> e
  | None ->
    let e =
      Extract.run ~obs:st.cfg.obs ~engine:kind st.timer st.verts ~corner
    in
    slot.live <- Some e;
    e

let live_engines st = List.filter_map (fun s -> s.live) st.slots

(* {2 Watchdogs} *)

let elapsed st = Wall_clock.now () -. st.t0

let set_stop st reason =
  if st.run.stop = None then begin
    Log.warn (fun m -> m "flow stopping: %s" reason);
    st.run.stop <- Some reason;
    Obs.snapshot st.cfg.obs ~label:"flow.stop"
      [ ("reason", Obs.Json.String reason); ("elapsed_seconds", Obs.Json.Float (elapsed st)) ]
  end

(* {2 Degradation ladder}

   Soft budget pressure sheds fidelity one rung per poll instead of dying
   at the hard limit: 2. switch to the cheapest extraction, 3. stop with
   the best result so far. Rung 1 (which shed extraction worker domains)
   is retired but keeps its number, so persisted rungs read the same.
   Rungs whose knob is already at bottom are skipped. The rung survives
   a session's delta requests: budget pressure is a property of the
   session, not of one request. *)

let cheap_extract_limit = 4096

let rung_name = function 2 -> "cheap-extraction" | _ -> "early-stop"

let rung_applicable st = function
  | 1 -> false (* retired *)
  | 2 -> st.engine0 <> `Fpm
  | _ -> true

let rec degrade st ~reason =
  if st.run.stop = None && st.rung < 3 then begin
    let rung = st.rung + 1 in
    st.rung <- rung;
    if not (rung_applicable st rung) then degrade st ~reason
    else begin
      let step = rung_name rung in
      if rung = 3 then set_stop st ("budget-" ^ reason);
      st.run.degradations_rev <- Printf.sprintf "%s(%s)" step reason :: st.run.degradations_rev;
      Obs.incr (Obs.counter st.cfg.obs "flow.degradations");
      if Obs.enabled st.cfg.obs then
        Obs.snapshot st.cfg.obs ~label:"flow.degrade"
          [
            ("step", Obs.Json.String step);
            ("reason", Obs.Json.String reason);
            ("rung", Obs.Json.Int rung);
            ("elapsed_seconds", Obs.Json.Float (elapsed st));
          ];
      Log.warn (fun m -> m "budget pressure (%s): degrading to %s (rung %d)" reason step rung)
    end
  end

(* Phase-boundary governor: the cooperative interrupt flag wins, then the
   budget — [Hard] stops the flow, [Soft] takes one ladder step. *)
let governor st =
  if st.run.stop = None then begin
    (match st.cfg.debug_interrupt_after_phase with
    | Some n when st.run.phases_done >= n -> Persist.request_interrupt ()
    | _ -> ());
    if Persist.interrupted () then set_stop st "interrupted"
    else
      match st.budget with
      | None -> ()
      | Some b -> (
        match Budget.poll b with
        | Budget.Under -> ()
        | Budget.Hard reason -> set_stop st ("budget-" ^ reason)
        | Budget.Soft reason -> degrade st ~reason)
  end

(* Why a scheduler run came back [Interrupted]: the signal flag, or the
   hard budget its [should_stop] also polls. *)
let interrupt_cause st =
  if Persist.interrupted () then "interrupted"
  else
    match st.budget with
    | Some b when Budget.hard b -> (
      match Budget.poll b with Budget.Hard reason -> "budget-" ^ reason | _ -> "budget-wall")
    | _ -> "interrupted"

(* The budget reaches into a phase in flight through [should_stop], which
   aborts mid-phase on a signal or hard budget. *)
let scheduler_config st =
  let should_stop () =
    st.iter_polls <- st.iter_polls + 1;
    (match st.cfg.debug_interrupt_after_iteration with
    | Some n when st.iter_polls > n -> Persist.request_interrupt ()
    | _ -> ());
    Persist.interrupted ()
    || (match st.budget with
       | Some b -> ( match Budget.poll b with Budget.Hard _ -> true | _ -> false)
       | None -> false)
  in
  { Scheduler.default_config with Scheduler.should_stop = Some should_stop }

(* {2 Checkpoint / rollback} *)

(* Checkpoint scoring and the final sign-off read the live timer with
   the scheduled latencies masked, bitwise a fresh [Evaluator.evaluate]
   (the oracles named at [rollback] hold it). *)
let score st =
  check_open st "score";
  Evaluator.score st.timer

(* Checkpoint scoring needs the contest view (physical latencies only),
   not the live timer's schedule; without it there is nothing
   trustworthy to roll back to, so [final_eval = false] also disables
   rollback scoring. *)
let scored_checkpoints st = st.cfg.rollback && st.cfg.final_eval

let take_checkpoint st ~label report =
  let design = Timer.design st.timer in
  let ffs = Design.ffs design in
  let ck_x, ck_y = Design.positions design in
  {
    Persist.label;
    ck_ffs = ffs;
    ck_latencies = Array.map (fun ff -> Design.scheduled_latency design ff) ffs;
    ck_lcb_of =
      Array.map (fun ff -> try Design.lcb_of_ff design ff with Not_found -> -1) ffs;
    ck_x;
    ck_y;
    ck_masters =
      Array.init (Design.num_cells design) (fun c ->
          (Design.cell_master design c).Css_liberty.Cell.name);
    ck_report = report;
  }

(* A checkpoint's score is the min of both corners' WNS, the tie-break
   the sum of both corners' TNS — both read off the stored report, so a
   resumed run compares exactly the floats the interrupted one did. *)
let merit (r : Evaluator.report) = Float.min r.Evaluator.wns_early r.Evaluator.wns_late
let tns (r : Evaluator.report) = r.Evaluator.tns_early +. r.Evaluator.tns_late

let better report (cp : Persist.checkpoint) =
  let s = merit report and best = merit cp.ck_report in
  s > best +. 1e-9 || (s >= best -. 1e-9 && tns report > tns cp.ck_report +. 1e-9)

(* Full incremental resync after arbitrary design mutation (restore or
   the [on_phase_end] hook): every wire delay and every clock latency is
   re-derived, so the live timer agrees with the design again. *)
let resync st =
  let design = Timer.design st.timer in
  let cells = ref [] in
  Design.iter_cells design (fun c -> cells := c :: !cells);
  Timer.update_moved_cells st.timer !cells;
  Timer.update_latencies st.timer (Array.to_list (Design.ffs design))

let restore st (cp : Persist.checkpoint) =
  let design = Timer.design st.timer in
  Array.iteri
    (fun c master ->
      if (Design.cell_master design c).Css_liberty.Cell.name <> master then
        Timer.resize_cell st.timer c master)
    cp.ck_masters;
  Array.iteri (fun c x -> Design.move_cell design c (Point.make x cp.ck_y.(c))) cp.ck_x;
  Array.iteri
    (fun i ff ->
      let lcb = cp.ck_lcb_of.(i) in
      (if lcb >= 0 then
         let cur = try Some (Design.lcb_of_ff design ff) with Not_found -> None in
         if cur <> Some lcb then Design.reconnect_ff_to_lcb design ~ff ~lcb);
      Design.set_scheduled_latency design ff cp.ck_latencies.(i))
    cp.ck_ffs;
  resync st

(* Score first; copy the design state only for a new best. *)
let consider_checkpoint st ~label =
  let report = score st in
  match st.run.best with
  | Some best when not (better report best) -> ()
  | _ ->
    st.run.best <- Some (take_checkpoint st ~label report);
    Obs.incr (Obs.counter st.cfg.obs "flow.checkpoints");
    Log.debug (fun m -> m "checkpoint %s: score %.2f" label (merit report))

(* {2 Durable checkpoints}

   A checkpoint is the run's progress record as it stands — the live
   CSS/OPT clocks folded into its accumulated seconds — plus what a
   reopened session needs to rebuild its design and engines. *)

let live st =
  {
    Persist.lv_algo = algo_name st.algo;
    lv_settings = settings st.cfg;
    lv_progress =
      {
        st.run with
        css_seconds = st.run.css_seconds +. Wall_clock.elapsed st.css_clock;
        opt_seconds = st.run.opt_seconds +. Wall_clock.elapsed st.opt_clock;
      };
    lv_rung = st.rung;
    lv_design = Timer.design st.timer;
    lv_engines =
      List.filter_map
        (fun s -> Option.map (fun e -> (s.name, Extract.snapshot e)) s.live)
        st.slots;
  }

(* Into the session's own directory, a save is one more journal write;
   anywhere else it is a full base. *)
let save st ~dir =
  check_open st "save";
  match st.journal with
  | Some j when st.cfg.checkpoint_dir = Some dir -> ignore (Persist.write j (live st))
  | _ -> Persist.save ~dir (live st)

(* Persistence failure degrades to an in-memory-only run, never a crash:
   the checkpoint is a safety net, not a correctness dependency. *)
let persist_checkpoint st =
  match st.journal with
  | None -> ()
  | Some j -> (
    try
      let t0 = Wall_clock.now () in
      let kind, bytes = Persist.write j (live st) in
      let dt = Wall_clock.now () -. t0 in
      Obs.incr (Obs.counter st.cfg.obs "flow.persisted");
      Obs.snapshot st.cfg.obs ~label:"flow.checkpoint"
        [
          ("write_seconds", Obs.Json.Float dt);
          ("kind", Obs.Json.String (match kind with `Base -> "base" | `Record -> "record"));
          ("bytes", Obs.Json.Int bytes);
        ]
    with Sys_error msg ->
      Obs.incr (Obs.counter st.cfg.obs "flow.persist_failed");
      Log.warn (fun m -> m "checkpoint save failed: %s" msg))

(* One CSS phase with the algorithm's engine (possibly degraded), followed
   by physical realization and hold repair. Returns [false] when the
   scheduler was interrupted mid-phase (signal / hard budget): nothing of
   the partial phase is recorded or realized, and [st.stop] carries the
   cause — a later resume redoes the whole phase from the last durable
   checkpoint, which is bitwise the same computation. *)
let css_opt_phase st ~round ~corner =
  let phase = match corner with Timer.Early -> "early" | Timer.Late -> "late" in
  let engine =
    match st.engine0 with `Iccss when st.rung >= 2 -> `Ours | e -> e
  in
  let extract_limit = if st.rung >= 2 then Some cheap_extract_limit else None in
  let sched_config = scheduler_config st in
  Wall_clock.start st.css_clock;
  let scheduled =
    Obs.span st.cfg.obs (phase ^ "-css") @@ fun () ->
    let run_scheduler kind =
      let eng = engine_for st kind corner in
      refresh_weights st (Extract.graph eng);
      let extraction = Scheduler.extraction_of ?limit:extract_limit eng in
      let res = Scheduler.run ~config:sched_config ~obs:st.cfg.obs st.timer extraction in
      note_scheduler_phase st ~round ~phase res;
      if res.Scheduler.stop_reason = Scheduler.Interrupted then None
      else begin
        st.run.iterations <- st.run.iterations + res.Scheduler.iterations;
        record_scheduler_trace st ~round ~phase:(phase ^ "-css") res;
        Some (targets_of st.verts res.Scheduler.target_latency)
      end
    in
    match engine with
    | `Ours -> run_scheduler Extract.Essential
    | `Iccss -> run_scheduler Extract.Iccss
    | `Fpm ->
      let res, stats = Css_baselines.Fpm.run ~obs:st.cfg.obs st.timer in
      st.run.edges <- st.run.edges + stats.Extract.edges_extracted;
      st.run.cones <- st.run.cones + stats.Extract.cone_nodes;
      snapshot_point st ~round ~phase:(phase ^ "-css") ~iter:1;
      Some (targets_of res.Css_baselines.Fpm.vertices res.Css_baselines.Fpm.target_latency)
  in
  Wall_clock.stop st.css_clock;
  match scheduled with
  | None ->
    set_stop st (interrupt_cause st);
    false
  | Some targets ->
  Wall_clock.start st.opt_clock;
  Obs.span st.cfg.obs (phase ^ "-opt") (fun () ->
  let targets =
    if st.cfg.use_cts && targets <> [] then begin
      (* CTS guidance first: clusters get purpose-built LCBs; anything the
         plan could not host falls back to reconnection *)
      let plan = Css_opt.Cts_guide.plan st.timer ~targets in
      let applied = Css_opt.Cts_guide.apply st.timer plan in
      let hosted = Hashtbl.create 64 in
      List.iter (fun ff -> Hashtbl.replace hosted ff ()) applied.Css_opt.Cts_guide.hosted;
      List.filter (fun (ff, _) -> not (Hashtbl.mem hosted ff)) targets
    end
    else targets
  in
  let obs = st.cfg.obs in
  let rstats = Obs.span obs "reconnect" (fun () -> Reconnect.realize st.timer ~targets) in
  let mstats = Obs.span obs "cell-move" (fun () -> Cell_move.repair_early st.timer) in
  Obs.add (Obs.counter obs "opt.reconnect.attempted") rstats.Reconnect.attempted;
  Obs.add (Obs.counter obs "opt.reconnect.reconnected") rstats.Reconnect.reconnected;
  Obs.add (Obs.counter obs "opt.cell_move.moves_tried") mstats.Cell_move.moves_tried;
  Obs.add (Obs.counter obs "opt.cell_move.moves_accepted") mstats.Cell_move.moves_accepted;
  Obs.add (Obs.counter obs "opt.cell_move.endpoints_fixed") mstats.Cell_move.endpoints_fixed;
  if st.cfg.use_resize then begin
    match corner with
    | Timer.Late -> ignore (Css_opt.Resize.upsize_late st.timer)
    | Timer.Early -> ignore (Css_opt.Resize.downsize_early st.timer)
  end);
  Wall_clock.stop st.opt_clock;
  Log.info (fun m ->
      m "round %d %s done: early %.1f/%.1f late %.1f/%.1f" round phase
        (Timer.wns st.timer Timer.Early) (Timer.tns st.timer Timer.Early)
        (Timer.wns st.timer Timer.Late) (Timer.tns st.timer Timer.Late));
  snapshot_point st ~round ~phase:(phase ^ "-opt") ~iter:0;
  (* fault-injection hook, then resync so the timer sees its mutations *)
  (match st.cfg.on_phase_end with
  | Some hook ->
    hook ~round ~phase (Timer.design st.timer);
    resync st
  | None -> ());
  if scored_checkpoints st then
    consider_checkpoint st ~label:(Printf.sprintf "round-%d-%s" round phase);
  (* stall watchdog on the live timer's worst slack (cheap; the
     evaluator-scored checkpoint above is the rollback authority) *)
  let run = st.run in
  let worst = Float.min (Timer.wns st.timer Timer.Early) (Timer.wns st.timer Timer.Late) in
  if worst > run.stall_best +. 1e-9 then begin
    run.stall_best <- worst;
    run.stall_count <- 0
  end
  else begin
    run.stall_count <- run.stall_count + 1;
    if run.stall_count >= stall_phases && run.stop = None then begin
      Log.info (fun m ->
          m "round %d %s: %d phases without worst-slack progress" round phase run.stall_count);
      set_stop st "stalled"
    end
  end;
  true

let clean st =
  Timer.wns st.timer Timer.Early >= 0.0 && Timer.wns st.timer Timer.Late >= 0.0

let ncorners st = match st.algo with Ours | Iccss_plus -> 2 | Ours_early | Fpm -> 1

let corner_of_index st i =
  match (st.algo, i) with (Ours | Iccss_plus), 1 -> Timer.Late | _ -> Timer.Early

let want_hold st =
  (not st.run.hold_done)
  && (match st.algo with Ours | Iccss_plus -> true | Ours_early | Fpm -> false)
  && Timer.wns st.timer Timer.Early < 0.0
  && (match st.run.stop with None | Some "stalled" -> true | _ -> false)

(* One phase of the positional continuation: phase k of the main loop is
   corner [k mod ncorners] of round [k / ncorners + 1], then the hold
   touch-up. The cursor arithmetic and guards reproduce the historical
   recursive loop exactly — in particular a mid-round cursor (ci > 0)
   re-enters its round without re-checking the round guard, because the
   uninterrupted run checked it only at round entry — so driving {!step}
   to [`Done] computes bitwise what the recursion did. *)
let step st =
  check_open st "step";
  let run = st.run in
  let nc = ncorners st in
  let r = (run.phases_done / nc) + 1 in
  let ci = run.phases_done mod nc in
  if run.stop = None && (ci > 0 || (r <= st.cfg.rounds && not (clean st))) then begin
    let corner = corner_of_index st ci in
    let label =
      Printf.sprintf "round-%d-%s" r
        (match corner with Timer.Early -> "early" | Timer.Late -> "late")
    in
    governor st;
    if run.stop = None then
      if css_opt_phase st ~round:r ~corner then begin
        run.phases_done <- run.phases_done + 1;
        persist_checkpoint st
      end;
    `Phase label
  end
  else if (not st.hold_attempted) && want_hold st then begin
    (* hold touch-up: the interleaving ends on a late phase, whose
       realization can leave small fresh hold violations; close them with
       one final early pass (the sign-off ECO order) — skipped when an
       interrupt or a hard budget already fired *)
    st.hold_attempted <- true;
    governor st;
    if
      (match run.stop with None | Some "stalled" -> true | _ -> false)
      && css_opt_phase st ~round:(st.cfg.rounds + 1) ~corner:Timer.Early
    then begin
      run.hold_done <- true;
      persist_checkpoint st
    end;
    `Phase "hold"
  end
  else `Done

let rec drain st = match step st with `Phase _ -> drain st | `Done -> ()

(* Fold the current run into a result. Non-destructive: engine statistics
   are summed into locals, so a later delta request on the same session
   starts its own accumulation from fresh engines. *)
let finalize st =
  let run = st.run in
  let stop_reason =
    match run.stop with Some s -> s | None -> if clean st then "clean" else "max-rounds"
  in
  let edges, cones =
    List.fold_left
      (fun (edges, cones) e ->
        let s = Extract.stats e in
        (edges + s.Extract.edges_extracted, cones + s.Extract.cone_nodes))
      (run.edges, run.cones) (live_engines st)
  in
  let final_report = if st.cfg.final_eval then score st else Evaluator.live st.timer in
  let report, rolled_back =
    if not (scored_checkpoints st) then (final_report, false)
    else
      match run.best with
      | Some cp
        when (not (better final_report cp)) && merit cp.ck_report > merit final_report +. 1e-9 ->
        Log.warn (fun m ->
            m "final state (score %.2f) worse than checkpoint %s (score %.2f): rolling back"
              (merit final_report) cp.label (merit cp.ck_report));
        restore st cp;
        Obs.incr (Obs.counter st.cfg.obs "flow.rollbacks");
        if Obs.enabled st.cfg.obs then
          Obs.snapshot st.cfg.obs ~label:"flow.rollback"
            [
              ("checkpoint", Obs.Json.String cp.label);
              ("checkpoint_score", Obs.Json.Float (merit cp.ck_report));
              ("final_score", Obs.Json.Float (merit final_report));
            ];
        (* the restored design, not the stored report: LCBs that CTS
           inserted after the checkpoint stay on the clock root net *)
        (score st, true)
      | _ -> (final_report, false)
  in
  let total_seconds = Wall_clock.now () -. st.t0 in
  (* the debug knobs set the process-global flag; clear it so reference
     runs later in the same process don't inherit a stale interrupt *)
  if
    st.cfg.debug_interrupt_after_phase <> None
    || st.cfg.debug_interrupt_after_iteration <> None
  then Persist.clear_interrupt ();
  {
    algo = algo_name st.algo;
    benchmark = Design.name (Timer.design st.timer);
    report;
    css_seconds = run.css_seconds +. Wall_clock.elapsed st.css_clock;
    opt_seconds = run.opt_seconds +. Wall_clock.elapsed st.opt_clock;
    total_seconds;
    extracted_edges = edges;
    cone_nodes = cones;
    css_iterations = run.iterations;
    hpwl_increase_pct =
      Css_geometry.Hpwl.increase_pct ~before:run.hpwl_before ~after:report.Evaluator.hpwl;
    stop_reason;
    rolled_back;
    degradations = List.rev run.degradations_rev;
    resumed = st.resumed;
    validation = st.validation;
    trace = List.rev run.trace_rev;
  }

let finish st =
  check_open st "finish";
  drain st;
  finalize st

(* {2 Opening and resuming} *)

(* The first act of every run: the start trajectory point, and the input
   itself as the first checkpoint — a hardened run can never end worse
   than what it was given. *)
let start_run st =
  snapshot_point st ~round:0 ~phase:"start" ~iter:0;
  if scored_checkpoints st then consider_checkpoint st ~label:"start";
  persist_checkpoint st

let create ~(config : config) ~algo ~validation ?resume design =
  let total_t0 = Wall_clock.now () in
  let run =
    match resume with
    | Some lv -> lv.Persist.lv_progress
    | None -> Persist.fresh_progress ~hpwl_before:(Design.total_hpwl design)
  in
  let timer = Timer.build ~config:config.timer ~obs:config.obs design in
  let budget =
    if config.budget.Budget.wall_seconds = None && config.budget.Budget.rss_bytes = None then
      None
    else Some (Budget.create ~obs:config.obs config.budget)
  in
  let engine0 =
    match algo with Ours | Ours_early -> `Ours | Iccss_plus -> `Iccss | Fpm -> `Fpm
  in
  let st =
    {
      cfg = config;
      algo;
      engine0;
      timer;
      journal = Option.map (fun dir -> Persist.journal ~dir) config.checkpoint_dir;
      verts = Vertex.of_design design;
      slots = slot_table ();
      budget;
      css_clock = Wall_clock.create ();
      opt_clock = Wall_clock.create ();
      t0 = total_t0;
      run;
      hold_attempted = false;
      rung = (match resume with Some r -> r.Persist.lv_rung | None -> 0);
      iter_polls = 0;
      resumed = Option.is_some resume;
      validation;
      closed = false;
    }
  in
  (match resume with
  | None -> start_run st
  | Some lv ->
    List.iter
      (fun (name, snap) ->
        let slot = List.find (fun s -> s.name = name) st.slots in
        slot.live <-
          Some
            (Extract.restore ~obs:config.obs snap st.timer st.verts
               ~corner:slot.corner))
      lv.Persist.lv_engines;
    Obs.incr (Obs.counter config.obs "flow.resumes");
    Log.info (fun m ->
        m "resumed %s on %s at phase %d (rung %d)" lv.Persist.lv_algo (Design.name design)
          run.phases_done lv.Persist.lv_rung));
  st

let open_ ?(config = default_config) ~algo design =
  let validation =
    if config.validate then begin
      let outcome = Validate.run ~obs:config.obs ~repair:config.repair design in
      if outcome.Validate.fatal then raise (Validate.Invalid outcome.Validate.diags);
      outcome.Validate.diags
    end
    else []
  in
  create ~config ~algo ~validation design

let ckpt_error fmt = Printf.ksprintf (fun m -> Diag.error ~code:"CKPT-006" m) fmt

(* A hash-valid checkpoint can still disagree with the design it
   carries (a hand-edited or foreign file). Every index, LCB and master
   [create] and [restore] dereference must exist and fit, so a bad file
   is reported instead of raising mid-restore. The best checkpoint may
   cover fewer cells than the design: CTS guidance adds LCBs after it
   was taken. *)
let shape_errors (lv : Persist.live) =
  let design = lv.Persist.lv_design in
  let ncells = Design.num_cells design in
  let cell c = c >= 0 && c < ncells in
  let library = Design.library design in
  let fits c name =
    match Css_liberty.Library.find_opt library name with
    | Some m -> Css_liberty.Cell.same_interface (Design.cell_master design c) m
    | None -> false
  in
  let best =
    match lv.Persist.lv_progress.best with
    | Some cp
      when Array.length cp.ck_ffs <> Array.length (Design.ffs design)
           || Array.exists (fun ff -> not (cell ff && Design.is_ff design ff)) cp.ck_ffs
           || Array.exists
                (fun lcb -> lcb <> -1 && not (cell lcb && Design.is_lcb design lcb))
                cp.ck_lcb_of
           || Array.length cp.ck_x > ncells
           || Array.length cp.ck_masters > ncells
           || Seq.exists (fun (c, m) -> not (fits c m)) (Array.to_seqi cp.ck_masters) ->
      [ ckpt_error "best checkpoint %S does not fit a design of %d cells" cp.label ncells ]
    | _ -> []
  in
  let engines =
    List.filter_map
      (fun (name, _) ->
        if List.mem name slot_names then None
        else Some (ckpt_error "checkpoint engine slot %S is not one this build knows" name))
      lv.Persist.lv_engines
  in
  best @ engines

let reopen ?(config = default_config) ~library ~dir () =
  match Persist.load ~library ~dir with
  | Error diags -> Error diags
  | Ok lv -> (
    match algo_of_name lv.Persist.lv_algo with
    | None ->
      Error [ ckpt_error "checkpoint algorithm %S is not one this build knows" lv.Persist.lv_algo ]
    | Some algo -> (
      match shape_errors lv with
      | _ :: _ as errors -> Error errors
      | [] ->
        (* the checkpoint's settings win: continuation must compute
           what the interrupted run would have *)
        let config = with_settings config lv.Persist.lv_settings in
        let st = create ~config ~algo ~validation:[] ~resume:lv lv.Persist.lv_design in
        (* writing back where it loaded from, the session appends to
           the journal it just replayed *)
        if config.checkpoint_dir = Some dir then
          st.journal <- Some (Persist.resume_journal ~dir (live st));
        Ok st))

let close st = st.closed <- true

(* {2 Delta requests} *)

(* A delta batch touching more than this fraction of all cells falls back
   to a from-scratch timer rebuild: the incremental path must stay
   cheaper than what it replaces. *)
let eco_fallback_frac = 0.25

type delta =
  | Move_cell of { cell : string; x : float; y : float }
  | Set_latency of { ff : string; latency : float }
  | Set_bounds of { ff : string; lo : float; hi : float }
  | Apply_sdc of string
  | Replace_design of string

type delta_mode =
  [ `Incremental  (* only the affected cones were re-propagated *)
  | `Rebuild  (* from-scratch fallback: fresh timer and vertex registry *)
  ]

type staged = {
  sg_design : Design.t;
  sg_moved : Design.cell_id list;
  sg_relat : Design.cell_id list;
  sg_touched : int;
  sg_replaced : bool;
  sg_timer : Timer.config;
  sg_diags : Diag.t list;
}

(* Resolved, validated edit operations: {!stage} resolves and checks
   every delta before mutating anything, so a rejected batch leaves the
   design untouched. *)
type op =
  | Op_move of Design.cell_id * Point.t
  | Op_latency of Design.cell_id * float
  | Op_bounds of Design.cell_id * float * float
  | Op_replace of Design.t

let eco_error code fmt = Printf.ksprintf (fun m -> Diag.error ~code m) fmt

let stage ?(validate = true) ?(repair = true) ~timer:timer_cfg design deltas =
  let errors = ref [] and warnings = ref [] in
  let err d = errors := d :: !errors in
  (* name resolution follows the design a delta applies to: ops after a
     [Replace_design] address the replacement's cells *)
  let cur = ref design in
  let table = ref None in
  let lookup name =
    let tbl =
      match !table with
      | Some t -> t
      | None ->
        let t = Hashtbl.create (2 * Design.num_cells !cur) in
        Design.iter_cells !cur (fun c -> Hashtbl.replace t (Design.cell_name !cur c) c);
        table := Some t;
        t
    in
    Hashtbl.find_opt tbl name
  in
  let tcfg = ref timer_cfg in
  let resolve_bounds ~unknown_code name lo hi =
    if Float.is_nan lo || Float.is_nan hi then begin
      err (eco_error "ECO-003" "NaN latency bound for %S" name);
      []
    end
    else if lo > hi || lo < 0.0 || hi < 0.0 then begin
      err (eco_error "ECO-004" "bad latency window [%g, %g] for %S" lo hi name);
      []
    end
    else
      match lookup name with
      | Some c when Design.is_ff !cur c -> [ Op_bounds (c, lo, hi) ]
      | Some _ ->
        err (eco_error "ECO-002" "cell %S is not a flip-flop" name);
        []
      | None ->
        err (eco_error unknown_code "no flip-flop named %S" name);
        []
  in
  let resolve = function
    | Move_cell { cell; x; y } -> (
      if not (Float.is_finite x && Float.is_finite y) then begin
        err (eco_error "ECO-003" "move of %S to non-finite position (%g, %g)" cell x y);
        []
      end
      else
        match lookup cell with
        | Some c -> [ Op_move (c, Point.make x y) ]
        | None ->
          err (eco_error "ECO-001" "no cell named %S" cell);
          [])
    | Set_latency { ff; latency } -> (
      if not (Float.is_finite latency) then begin
        err (eco_error "ECO-003" "non-finite scheduled latency %g for %S" latency ff);
        []
      end
      else
        match lookup ff with
        | Some c when Design.is_ff !cur c -> [ Op_latency (c, latency) ]
        | Some _ ->
          err (eco_error "ECO-002" "cell %S is not a flip-flop" ff);
          []
        | None ->
          err (eco_error "ECO-001" "no cell named %S" ff);
          [])
    | Set_bounds { ff; lo; hi } -> resolve_bounds ~unknown_code:"ECO-001" ff lo hi
    | Apply_sdc text -> (
      match Sdc.parse ~source:"<apply_delta>" text with
      | Error ds ->
        List.iter err ds;
        []
      | Ok (sdc, warns) ->
        warnings := List.rev_append warns !warnings;
        (match sdc.Sdc.period with
        | Some p when Float.abs (p -. Design.clock_period !cur) > 1e-9 ->
          err
            (eco_error "SDC-002" "constraint period %.6g disagrees with the design's %.6g" p
               (Design.clock_period !cur))
        | Some _ | None -> ());
        (* analysis knobs fold into the timer configuration the way the
           CLI folds an SDC file ({!Timer.fold_sdc}). A changed timer
           config forces the from-scratch fallback — a built timer's
           corner setup is a construction parameter. *)
        tcfg := Timer.fold_sdc !tcfg sdc;
        List.concat_map
          (fun (name, lo, hi) -> resolve_bounds ~unknown_code:"SDC-003" name lo hi)
          sdc.Sdc.latency_bounds)
    | Replace_design text -> (
      match Io.of_string ~source:"<apply_delta>" ~library:(Design.library !cur) text with
      | Error ds ->
        List.iter err ds;
        []
      | Ok (d, warns) ->
        warnings := List.rev_append warns !warnings;
        let accepted =
          if validate then begin
            let outcome = Validate.run ~repair d in
            if outcome.Validate.fatal then begin
              List.iter err outcome.Validate.diags;
              false
            end
            else begin
              warnings := List.rev_append outcome.Validate.diags !warnings;
              true
            end
          end
          else true
        in
        if accepted then begin
          cur := d;
          table := None;
          [ Op_replace d ]
        end
        else [])
  in
  let ops = List.concat_map resolve deltas in
  if !errors <> [] then Error (List.rev !errors)
  else begin
    (* apply phase: every op is pre-validated, nothing below can fail, so
       the batch is atomic *)
    let moved = ref [] and relat = ref [] and bounds = ref 0 in
    let final = ref design and replaced = ref false in
    List.iter
      (fun op ->
        match op with
        | Op_replace d ->
          final := d;
          replaced := true;
          moved := [];
          relat := [];
          bounds := 0
        | Op_move (c, p) ->
          Design.move_cell !final c p;
          moved := c :: !moved
        | Op_latency (c, l) ->
          Design.set_scheduled_latency !final c l;
          relat := c :: !relat
        | Op_bounds (c, lo, hi) ->
          Design.set_latency_bounds !final c ~lo ~hi;
          incr bounds)
      ops;
    let dedup ids = List.sort_uniq compare (List.rev ids) in
    let moved = dedup !moved and relat = dedup !relat in
    Ok
      {
        sg_design = !final;
        sg_moved = moved;
        sg_relat = relat;
        sg_touched =
          (if !replaced then Design.num_cells !final
           else List.length moved + List.length relat + !bounds);
        sg_replaced = !replaced;
        sg_timer = !tcfg;
        sg_diags = List.rev !warnings;
      }
  end

type delta_outcome = {
  d_result : result;
  d_mode : delta_mode;
  d_touched : int;
  d_seconds : float;
  d_diags : Diag.t list;
}

(* Reset the per-run cursors and accumulators so the next schedule is,
   phase for phase, the run a fresh [Flow.run] would execute on the
   edited design — with the warm timer standing in for a fresh build.
   The budget and its degradation rung survive: they belong to the
   session, not to one request. *)
let reset_for_run st =
  List.iter (fun s -> s.live <- None) st.slots;
  st.run <- Persist.fresh_progress ~hpwl_before:(Design.total_hpwl (Timer.design st.timer));
  st.hold_attempted <- false;
  st.iter_polls <- 0;
  st.css_clock <- Wall_clock.create ();
  st.opt_clock <- Wall_clock.create ();
  st.resumed <- false;
  st.t0 <- Wall_clock.now ();
  start_run st

let apply_delta st deltas =
  check_open st "apply_delta";
  let t_req = Wall_clock.now () in
  match
    stage ~validate:st.cfg.validate ~repair:st.cfg.repair ~timer:st.cfg.timer
      (Timer.design st.timer) deltas
  with
  | Error _ as e -> e
  | Ok sg ->
    let timer_changed = sg.sg_timer <> st.cfg.timer in
    let frac_limit =
      max 1 (int_of_float (eco_fallback_frac *. float_of_int (Design.num_cells sg.sg_design)))
    in
    let mode =
      if sg.sg_replaced || timer_changed then `Rebuild
      else if List.length sg.sg_moved + List.length sg.sg_relat > frac_limit then `Rebuild
      else `Incremental
    in
    (match mode with
    | `Rebuild ->
      (* the delta invalidated too much (netlist ECO, analysis-corner
         change, or a blast radius past [eco_fallback_frac]): rebuild the
         timing state from scratch inside the warm session *)
      st.cfg <- { st.cfg with timer = sg.sg_timer };
      st.timer <- Timer.build ~config:sg.sg_timer ~obs:st.cfg.obs sg.sg_design;
      st.verts <- Vertex.of_design sg.sg_design;
      if sg.sg_replaced then st.validation <- sg.sg_diags;
      Obs.incr (Obs.counter st.cfg.obs "session.delta_rebuild")
    | `Incremental ->
      (* the paper's Update step, across requests: re-derive wire delays
         for the moved cells and re-propagate only the affected cones *)
      if sg.sg_moved <> [] then Timer.update_moved_cells st.timer sg.sg_moved;
      if sg.sg_relat <> [] then Timer.update_latencies st.timer sg.sg_relat;
      Obs.incr (Obs.counter st.cfg.obs "session.delta_incremental"));
    Obs.incr (Obs.counter st.cfg.obs "session.deltas");
    reset_for_run st;
    drain st;
    let res = finalize st in
    Ok
      {
        d_result = res;
        d_mode = mode;
        d_touched = sg.sg_touched;
        d_seconds = Wall_clock.now () -. t_req;
        d_diags = sg.sg_diags;
      }
