module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Sdc = Css_netlist.Sdc
module Validate = Css_netlist.Validate
module Library = Css_liberty.Library
module Diag = Css_util.Diag
module Obs = Css_util.Obs
module Timer = Css_sta.Timer
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Extract = Css_seqgraph.Extract
module Optimum = Css_core.Optimum
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Fault_seq = Css_benchgen.Fault_seq

type run = {
  engine : Extract.engine;
  corner : Timer.corner;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  iterations : int;
  stop_reason : string;
  edges_extracted : int;
  latencies : (string * float) list;
  scheduled : Design.t;
}

let latencies_of design =
  Design.ffs design
  |> Array.to_list
  |> List.map (fun ff -> (Design.cell_name design ff, Design.scheduled_latency design ff))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let report_diffs ~label (a : Evaluator.report) (b : Evaluator.report) =
  let float name x y =
    if Int64.bits_of_float x = Int64.bits_of_float y then []
    else [ Printf.sprintf "%s: %s %.17g vs %.17g" label name x y ]
  and int name x y = if x = y then [] else [ Printf.sprintf "%s: %s %d vs %d" label name x y ] in
  List.concat
    [
      float "wns_early" a.Evaluator.wns_early b.Evaluator.wns_early;
      float "tns_early" a.Evaluator.tns_early b.Evaluator.tns_early;
      float "wns_late" a.Evaluator.wns_late b.Evaluator.wns_late;
      float "tns_late" a.Evaluator.tns_late b.Evaluator.tns_late;
      int "num_early_violations" a.Evaluator.num_early_violations
        b.Evaluator.num_early_violations;
      int "num_late_violations" a.Evaluator.num_late_violations b.Evaluator.num_late_violations;
      float "hpwl" a.Evaluator.hpwl b.Evaluator.hpwl;
      (if a.Evaluator.constraint_errors = b.Evaluator.constraint_errors then []
       else
         [
           Printf.sprintf "%s: constraint_errors differ ([%s] vs [%s])" label
             (String.concat "; " a.Evaluator.constraint_errors)
             (String.concat "; " b.Evaluator.constraint_errors);
         ]);
    ]

let schedule ?config engine design ~corner =
  let design = Flow.clone design in
  let timer = Timer.build design in
  let result, stats = Engine.run ?config ~engine timer ~corner in
  {
    engine;
    corner;
    wns_early = Timer.wns timer Timer.Early;
    tns_early = Timer.tns timer Timer.Early;
    wns_late = Timer.wns timer Timer.Late;
    tns_late = Timer.tns timer Timer.Late;
    iterations = result.Scheduler.iterations;
    stop_reason = Scheduler.stop_reason_name result.Scheduler.stop_reason;
    edges_extracted = stats.Extract.edges_extracted;
    latencies = latencies_of design;
    scheduled = design;
  }

(* ------------------------------------------------------------------ *)
(* Differential parity *)

(* Only the scheduled corner's WNS is theoretically pinned (the
   minimum-cycle-mean optimum every engine converges to); TNS is a
   property of the particular WNS-optimal schedule reached, and
   off-corner metrics are unconstrained — different optimal schedules
   legitimately trade them differently. So: tight WNS parity, a loose
   TNS regression tripwire, nothing off-corner. *)
let check_parity ?(wns_tol = 0.5) ?(tns_rel_tol = 0.5) ?(tns_abs_tol = 10.0) ~reference
    candidate =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let rname = Extract.engine_name reference.engine
  and cname = Extract.engine_name candidate.engine in
  if reference.corner <> candidate.corner then
    fail "%s vs %s: runs scheduled different corners" rname cname
  else begin
    let r_wns, c_wns, r_tns, c_tns =
      match reference.corner with
      | Timer.Early ->
        (reference.wns_early, candidate.wns_early, reference.tns_early, candidate.tns_early)
      | Timer.Late ->
        (reference.wns_late, candidate.wns_late, reference.tns_late, candidate.tns_late)
    in
    if Float.is_nan r_wns || Float.is_nan c_wns then
      fail "%s vs %s: NaN WNS (%g vs %g)" rname cname r_wns c_wns
    else if Float.abs (r_wns -. c_wns) > wns_tol then
      fail "%s vs %s: WNS differs by %.3f ps (%.3f vs %.3f, tol %.3f)" rname cname
        (Float.abs (r_wns -. c_wns))
        r_wns c_wns wns_tol;
    if Float.is_nan r_tns || Float.is_nan c_tns then
      fail "%s vs %s: NaN TNS (%g vs %g)" rname cname r_tns c_tns
    else
      let tol = Float.max tns_abs_tol (tns_rel_tol *. Float.abs r_tns) in
      if Float.abs (r_tns -. c_tns) > tol then
        fail "%s vs %s: TNS differs by %.3f ps (%.3f vs %.3f, tol %.3f)" rname cname
          (Float.abs (r_tns -. c_tns))
          r_tns c_tns tol
  end;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Schedule feasibility *)

let check_feasible ?(slack_tol = 0.5) design ~corner =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  Array.iter
    (fun ff ->
      let name = Design.cell_name design ff in
      let l = Design.scheduled_latency design ff in
      if not (Float.is_finite l) then fail "flip-flop %s: non-finite scheduled latency %g" name l
      else begin
        let lo, hi = Design.latency_bounds design ff in
        if Float.is_finite lo && l < lo -. 1e-6 then
          fail "flip-flop %s: latency %.6f below its window floor %.6f" name l lo;
        if Float.is_finite hi && l > hi +. 1e-6 then
          fail "flip-flop %s: latency %.6f above its window ceiling %.6f" name l hi
      end)
    (Design.ffs design);
  (match Design.check design with
  | [] -> ()
  | msgs -> fail "structural integrity lost after scheduling: %s" (List.hd msgs));
  (if !failures = [] then
     (* only when numerically sane: the cycle-mean bound is the best any
        schedule can achieve, so beating it convicts the timer *)
     let timer = Timer.build design in
     let bound, wns = Optimum.gap timer ~corner in
     if Float.is_nan bound || Float.is_nan wns then
       fail "optimum bound or WNS is NaN (bound %g, wns %g)" bound wns
     else if wns > bound +. slack_tol then
       fail "achieved WNS %.3f beats the minimum-cycle-mean bound %.3f by more than %.3f ps" wns
         bound slack_tol);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Resume identity *)

(* Where design [b] differs from [a], each line prefixed by [label]:
   every flip-flop's scheduled latency bit for bit, then the design
   text, which also holds what OPT did (placement, reconnections and
   the realized latencies it zeroes, which latencies alone miss). *)
let design_diffs ~label a b =
  let diff fmt = Printf.ksprintf (fun m -> [ label ^ ": " ^ m ]) fmt in
  let la = latencies_of a and lb = latencies_of b in
  let latencies =
    if List.length la <> List.length lb then
      diff "flip-flop count diverged (%d vs %d)" (List.length la) (List.length lb)
    else
      List.concat
        (List.map2
           (fun (n, x) (n', y) ->
             if n <> n' then diff "flip-flop set diverged (%s vs %s)" n n'
             else if Int64.bits_of_float x <> Int64.bits_of_float y then
               diff "flip-flop %s latency not bit-identical (%.17g vs %.17g)" n x y
             else [])
           la lb)
  in
  let rec first i = function
    | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
    | x :: _, y :: _ -> diff "design text differs at line %d (%S vs %S)" i x y
    | x :: _, [] | [], x :: _ -> diff "design text ends early before line %d (%S)" i x
    | [], [] -> []
  in
  let lines d = String.split_on_char '\n' (Io.to_string d) in
  latencies @ first 1 (lines a, lines b)

(* Durable checkpoints are only correct if continuation is invisible:
   kill a flow at an arbitrary boundary, resume from disk, and the final
   state must be bitwise the one an uninterrupted run reaches. The kill
   is injected with the flow's debug knobs, so the check is deterministic
   and in-process (the fuzz CLI and CI drive real signals separately). *)
let check_resume_identity ?(config = Flow.default_config) ?kill_after_phase
    ?kill_after_iteration design ~algo ~dir =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let base =
    {
      config with
      Flow.checkpoint_dir = None;
      Flow.debug_interrupt_after_phase = None;
      Flow.debug_interrupt_after_iteration = None;
    }
  in
  let reference_design = Flow.clone design in
  let reference = Flow.run ~config:base ~algo reference_design in
  ignore
    (Flow.run
       ~config:
         {
           base with
           Flow.checkpoint_dir = Some dir;
           Flow.debug_interrupt_after_phase = kill_after_phase;
           Flow.debug_interrupt_after_iteration = kill_after_iteration;
         }
       ~algo (Flow.clone design));
  (* the checkpoint carries the run's settings: the resume passes none *)
  match
    Flow.resume
      ~config:{ Flow.default_config with Flow.checkpoint_dir = Some dir }
      ~library:(Design.library design) ~dir ()
  with
  | Error ds ->
    fail "resume rejected the checkpoint: %s"
      (match ds with d :: _ -> d.Diag.message | [] -> "(no diagnostics)");
    List.rev !failures
  | Ok (resumed, resumed_design) ->
    if not resumed.Flow.resumed then fail "resumed result not flagged as resumed";
    if resumed.Flow.stop_reason <> reference.Flow.stop_reason then
      fail "stop_reason diverged: resumed %S vs uninterrupted %S" resumed.Flow.stop_reason
        reference.Flow.stop_reason;
    if resumed.Flow.rolled_back <> reference.Flow.rolled_back then
      fail "rollback decision diverged: resumed %b vs uninterrupted %b" resumed.Flow.rolled_back
        reference.Flow.rolled_back;
    List.rev !failures
    @ report_diffs ~label:"final report" reference.Flow.report resumed.Flow.report
    @ design_diffs ~label:"uninterrupted vs resumed" reference_design resumed_design

(* ------------------------------------------------------------------ *)
(* ECO identity *)

module Session = Css_flow.Session
module Point = Css_geometry.Point

(* A delta corpus that exercises every request kind the session's
   resolve path accepts: placement nudges within the die, latency
   overrides and window tightenings on real flip-flops, a bounds-only
   SDC snippet, and an occasional no-op netlist replacement (which still
   forces the from-scratch fallback rung). Deterministic in [rng]. *)
let random_deltas rng design ~n =
  let ffs = Design.ffs design in
  let nff = Array.length ffs in
  let cells = Design.num_cells design in
  let pick () = ffs.(Random.State.int rng nff) in
  List.init n (fun _ ->
      if nff = 0 then Session.Replace_design (Io.to_string design)
      else
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          let c = Random.State.int rng cells in
          let pos = Design.cell_pos design c in
          Session.Move_cell
            {
              cell = Design.cell_name design c;
              x = Float.max 0.0 (pos.Point.x +. (Random.State.float rng 400.0 -. 200.0));
              y = Float.max 0.0 (pos.Point.y +. (Random.State.float rng 400.0 -. 200.0));
            }
        | 4 | 5 | 6 ->
          Session.Set_latency
            {
              ff = Design.cell_name design (pick ());
              latency = Random.State.float rng 80.0;
            }
        | 7 | 8 ->
          (* latency windows are non-negative (Eq. 5) *)
          let lo = Random.State.float rng 50.0 in
          Session.Set_bounds
            {
              ff = Design.cell_name design (pick ());
              lo;
              hi = lo +. 60.0 +. Random.State.float rng 200.0;
            }
        | _ ->
          let ff = Design.cell_name design (pick ()) in
          Session.Apply_sdc (Printf.sprintf "set_latency_bounds %s 0 260\n" ff))

(* apply_delta must be an optimization, never an approximation: a warm
   session answering a delta and a cold Flow.run on the post-delta
   design must produce bit-identical schedules. The reference replays
   each batch with Session.stage on its own design (same resolve/apply
   code by construction) and re-runs the flow from scratch; anchors
   match because both designs are cloned from the same source before
   any phase moves a cell. *)
let check_eco_identity ?(config = Flow.default_config) ~deltas design ~algo =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let compare_designs ~label wd cd =
    failures := List.rev_append (design_diffs ~label:(label ^ ", warm vs cold") wd cd) !failures
  in
  let base =
    {
      config with
      (* rollback needs the evaluator; neither changes latencies, and a
         service session answers from the live timer *)
      Flow.final_eval = false;
      Flow.rollback = false;
      Flow.checkpoint_dir = None;
      Flow.debug_interrupt_after_phase = None;
      Flow.debug_interrupt_after_iteration = None;
    }
  in
  let warm_design = Flow.clone design in
  let cold_design = Flow.clone design in
  let session = Session.open_ ~config:base ~algo warm_design in
  Fun.protect
    ~finally:(fun () -> Session.close session)
    (fun () ->
      ignore (Session.finish session);
      ignore (Flow.run ~config:base ~algo cold_design);
      compare_designs ~label:"initial run" warm_design cold_design;
      let cold_timer = ref base.Flow.timer in
      List.iteri
        (fun k batch ->
          let label = Printf.sprintf "batch %d" k in
          match Session.apply_delta session batch with
          | Error ds ->
            fail "%s: apply_delta rejected: %s" label
              (String.concat "; " (List.map Diag.to_string ds))
          | Ok _ -> (
            match
              Session.stage ~validate:base.Flow.validate ~repair:base.Flow.repair
                ~timer:!cold_timer cold_design batch
            with
            | Error ds ->
              fail "%s: reference stage rejected what apply_delta accepted: %s" label
                (String.concat "; " (List.map Diag.to_string ds))
            | Ok sg ->
              cold_timer := sg.Session.sg_timer;
              ignore (Flow.run ~config:{ base with Flow.timer = !cold_timer } ~algo cold_design);
              compare_designs ~label warm_design cold_design))
        deltas);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Live-timer scoring identity *)

(* Scoring on the live timer must be an optimization, never an
   approximation: at open, after every phase of a real flow (moves,
   reconnections, resizing, CTS growth) and after the sign-off (past
   any rollback), the session's score must be bitwise a fresh
   evaluation of an independent copy. *)
let check_scorer_identity ?(config = Flow.default_config) design ~algo =
  let failures = ref [] in
  let diffs label reference got =
    failures := List.rev_append (report_diffs ~label reference got) !failures
  in
  let config =
    {
      config with
      Flow.checkpoint_dir = None;
      Flow.debug_interrupt_after_phase = None;
      Flow.debug_interrupt_after_iteration = None;
    }
  in
  let s = Session.open_ ~config ~algo (Flow.clone design) in
  let phases = ref 0 in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      let fresh () =
        Evaluator.evaluate ~timer:(Session.config s).Flow.timer (Flow.clone (Session.design s))
      in
      let check label = diffs label (fresh ()) (Session.score s) in
      check "open";
      let rec go () =
        match Session.step s with
        | `Phase label ->
          incr phases;
          check label;
          go ()
        | `Done -> ()
      in
      go ();
      let r = Session.finish s in
      diffs "sign-off" (fresh ()) r.Flow.report);
  if !phases = 0 then failures := "the flow ran no phase: nothing was compared" :: !failures;
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Graceful-degradation pipeline *)

type verdict =
  | Rejected of string
  | Survived of Evaluator.report

let well_formed_rejection ~stage ds =
  if ds = [] then Error (stage ^ ": rejected with no diagnostics")
  else if not (Diag.has_errors ds) then
    Error (stage ^ ": rejected without an error-severity diagnostic")
  else if List.exists (fun (d : Diag.t) -> d.Diag.code = "") ds then
    Error (stage ^ ": rejection diagnostic without a code")
  else Ok (Rejected stage)

let score (rep : Evaluator.report) = Float.min rep.Evaluator.wns_early rep.Evaluator.wns_late

let pipeline ?(rounds = 1) (corpus : Fault_seq.corpus) =
  let library = corpus.Fault_seq.library in
  match
    (* 1. the library gate: corrupted models must be caught here *)
    let lib_diags = Library.validate library in
    if Diag.has_errors lib_diags then well_formed_rejection ~stage:"library" lib_diags
    else
      (* 2. netlist ingest under the lenient policy *)
      match Io.of_string ~policy:Io.Recover ~library corpus.Fault_seq.design_text with
      | Error ds -> well_formed_rejection ~stage:"netlist-parse" ds
      | Ok (design, _) -> (
        (* 3. constraints: parse errors reject, apply errors reject *)
        match Sdc.parse ~policy:Sdc.Recover corpus.Fault_seq.sdc_text with
        | Error ds -> well_formed_rejection ~stage:"sdc-parse" ds
        | Ok (sdc, _) -> (
          match Sdc.apply ~policy:Sdc.Recover sdc design with
          | Error ds -> well_formed_rejection ~stage:"sdc-apply" ds
          | Ok _ -> (
          (* 4. validate-and-repair before scoring the input: a fatally
             degenerate design (e.g. a combinational loop) must be
             rejected here, not fed to the evaluator's fresh timer *)
          match Validate.run design with
          | outcome when outcome.Validate.fatal ->
            well_formed_rejection ~stage:"validate" outcome.Validate.diags
          | _ -> (
            let before = Evaluator.evaluate (Flow.clone design) in
            let on_phase_end =
              if corpus.Fault_seq.sabotage_late then
                Some (fun ~round:_ ~phase d -> if phase = "late" then Fault_seq.push_ffs_off_die d)
              else None
            in
            let config = { Flow.default_config with Flow.rounds; on_phase_end } in
            (* the guarded flow re-validates the (already repaired)
               design; an accepted run must end no worse than its input *)
            match Flow.run ~config ~algo:Flow.Ours design with
            | exception Validate.Invalid ds -> well_formed_rejection ~stage:"validate" ds
            | result ->
              let after = result.Flow.report in
              if Float.is_nan (score before) || Float.is_nan (score after) then
                Error
                  (Printf.sprintf "evaluator produced NaN (before %g, after %g)" (score before)
                     (score after))
              else if score after < score before -. 1e-6 then
                Error
                  (Printf.sprintf "flow accepted a schedule worse than its input (%.3f < %.3f)"
                     (score after) (score before))
              else
                (* the report contract: whether final or rolled back, the
                   returned report is what re-evaluating the returned
                   design produces *)
                match
                  report_diffs ~label:"returned report vs re-evaluation"
                    (Evaluator.evaluate design) after
                with
                | [] -> Ok (Survived after)
                | diffs -> Error (String.concat "\n" diffs)))))
  with
  | verdict -> verdict
  | exception e ->
    Error (Printf.sprintf "unhandled exception escaped the pipeline: %s" (Printexc.to_string e))
