(* Differential oracles across the scheduling engines, plus the
   property-based fault corpus with shrinking.

   The engine sweep runs 3 profiles x 5 seeds x all 3 engines and holds
   the paper's central equivalence claim: iterative essential extraction
   reaches the timing of exhaustive extraction (and IC-CSS+ parity keeps
   the baseline honest). The qcheck properties cover pipeline graceful
   degradation under random fault sequences; a failing sequence is
   shrunk by Fault_seq and printed as a replayable seed + fault list. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Rng = Css_util.Rng
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Mutator = Css_benchgen.Mutator
module Fault_seq = Css_benchgen.Fault_seq
module Timer = Css_sta.Timer
module Oracles = Css_oracle.Oracles
module Obs = Css_util.Obs
module Point = Css_geometry.Point
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Session = Css_flow.Session

let library = Css_liberty.Library.default
let checkb = Alcotest.check Alcotest.bool
let seeds = [ 1001; 2002; 3003; 4004; 5005 ]

let profiles seed =
  [
    { Profile.tiny with Profile.seed };
    { (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))) with Profile.seed = seed + 7 };
    { (Profile.scale 0.1 (Option.get (Profile.by_name "sb5"))) with Profile.seed = seed + 13 };
  ]

let fail_all ctx = function
  | [] -> ()
  | failures -> Alcotest.failf "%s:\n  %s" ctx (String.concat "\n  " failures)

(* {2 The engine sweep: ours == full == iccss, and every schedule is
   feasible} *)

let test_engine_parity corner cname () =
  List.iter
    (fun seed ->
      List.iter
        (fun profile ->
          let design = Generator.generate profile in
          let ctx engine =
            Printf.sprintf "%s/seed%d/%s/%s" profile.Profile.name seed cname engine
          in
          let reference = Oracles.schedule Css_seqgraph.Extract.Full design ~corner in
          let ours = Oracles.schedule Css_seqgraph.Extract.Essential design ~corner in
          let iccss = Oracles.schedule Css_seqgraph.Extract.Iccss design ~corner in
          fail_all (ctx "ours-vs-full") (Oracles.check_parity ~reference ours);
          fail_all (ctx "iccss-vs-full") (Oracles.check_parity ~reference iccss);
          (* every engine extracts *something* on these violating designs;
             cumulative counts are not comparable across engines (Essential
             legitimately re-extracts as latencies shift round to round) *)
          if ours.Oracles.edges_extracted = 0 && reference.Oracles.edges_extracted > 0 then
            Alcotest.failf "%s: essential extracted nothing where full found %d edges"
              (ctx "edges") reference.Oracles.edges_extracted;
          fail_all (ctx "feasible")
            (Oracles.check_feasible ours.Oracles.scheduled ~corner))
        (profiles seed))
    seeds

(* {2 Scoring on the live timer: bitwise a fresh evaluation} *)

let scorer_algos = [ Flow.Ours; Flow.Ours_early; Flow.Iccss_plus; Flow.Fpm ]

(* the acceptance sweep: 3 profiles x 4 algorithms, the session's score
   against a fresh evaluation after every phase *)
let test_scorer_identity_sweep () =
  List.iter
    (fun profile ->
      List.iter
        (fun algo ->
          let design = Generator.generate profile in
          fail_all
            (Printf.sprintf "scorer/%s/%s" profile.Profile.name (Flow.algo_name algo))
            (Oracles.check_scorer_identity design ~algo))
        scorer_algos)
    (profiles 5150)

(* gate sizing re-masters cells through the live timer; CTS grows the
   netlist beside it *)
let test_scorer_identity_resize_cts () =
  let design = Generator.generate (List.nth (profiles 6160) 1) in
  let run label config = fail_all label (Oracles.check_scorer_identity ~config design ~algo:Flow.Ours) in
  run "scorer/resize" { Flow.default_config with Flow.use_resize = true };
  let cts = { Flow.default_config with Flow.use_cts = true } in
  run "scorer/cts" cts;
  let grown = Flow.clone design in
  ignore (Flow.run ~config:cts ~algo:Flow.Ours grown);
  checkb "CTS inserted LCBs" true (Design.num_cells grown > Design.num_cells design)

(* An [on_phase_end] hook that makes every phase end worse than the
   run's start *)
let push_ffs_off_die ~round:_ ~phase:_ d = Fault_seq.push_ffs_off_die d

(* Delta batches into a session with rollback on. Every phase end
   pushes the flip-flops further off the die, so each run rolls back to
   its start checkpoint, scored on the live timer right after the
   batch: the incrementally updated one for placement and latency
   deltas, a rebuilt one after a netlist replacement or an
   analysis-corner change. The rolled-back report must be bitwise a
   fresh evaluation of the restored design. *)
let test_scorer_under_deltas () =
  let design = Generator.generate { Profile.tiny with Profile.seed = 31337 } in
  let rng = Random.State.make [| 31337; 5 |] in
  let batches =
    List.init 4 (fun _ -> Oracles.random_deltas rng design ~n:3)
    @ [
        [ Session.Replace_design (Io.to_string design) ];
        [ Session.Apply_sdc "set_clock_uncertainty -setup 3\n" ];
        Oracles.random_deltas rng design ~n:3;
      ]
  in
  let config =
    { Session.default_config with Session.rounds = 1; on_phase_end = Some push_ffs_off_die }
  in
  let session = Session.open_ ~config ~algo:Flow.Ours (Flow.clone design) in
  let rollbacks = ref 0 in
  Fun.protect
    ~finally:(fun () -> Session.close session)
    (fun () ->
      let check label (r : Session.result) =
        if r.Session.rolled_back then incr rollbacks;
        let timer = (Session.config session).Session.timer in
        fail_all label
          (Oracles.report_diffs ~label
             (Evaluator.evaluate ~timer (Session.design session))
             r.Session.report)
      in
      check "initial run" (Session.finish session);
      List.iteri
        (fun k batch ->
          let label = Printf.sprintf "batch %d" k in
          match Session.apply_delta session batch with
          | Ok o -> check label o.Session.d_result
          | Error ds ->
            Alcotest.failf "%s rejected: %s" label
              (String.concat "; " (List.map Css_util.Diag.to_string ds)))
        batches);
  checkb "every run rolled back" true (!rollbacks = List.length batches + 1)

(* A report must be bitwise a fresh evaluation of an independent copy
   of the session's design as it stands: the sign-off too, whether the
   run kept its final state or rolled back (past CTS too: the report
   scores the restored design, leftover LCBs and all). *)
let fresh_diffs ~label session report =
  let config = Session.config session in
  Oracles.report_diffs ~label
    (Evaluator.evaluate ~timer:config.Session.timer (Session.clone (Session.design session)))
    report


let signoff_profiles =
  let scaled name seed =
    { (Profile.scale 0.12 (Option.get (Profile.by_name name))) with Profile.seed }
  in
  [ { Profile.tiny with Profile.seed = 8080 }; scaled "sb16" 8081; scaled "sb18" 8082 ]

(* The per-phase oracle, whose last comparison is the sign-off, over
   3 profiles x 4 algorithms x 4 configurations *)
let test_signoff_identity () =
  let d = Session.default_config in
  let configs =
    [
      ("default", d);
      ("resize", { d with Session.use_resize = true });
      ("cts", { d with Session.use_cts = true });
      ("no-rollback", { d with Session.rollback = false });
    ]
  in
  List.iter
    (fun profile ->
      let design = Generator.generate profile in
      List.iter
        (fun algo ->
          List.iter
            (fun (cname, config) ->
              let label =
                Printf.sprintf "sign-off/%s/%s/%s" profile.Profile.name (Flow.algo_name algo)
                  cname
              in
              fail_all label (Oracles.check_scorer_identity ~config design ~algo))
            configs)
        scorer_algos)
    signoff_profiles

(* The sign-off reads the design as it is, not the last checkpoint: a
   combinational cell moved after the last phase (behind the session's
   back) must show in the report. *)
let test_signoff_reads_current_design () =
  let design = Generator.generate (List.nth signoff_profiles 2) in
  let s = Session.open_ ~algo:Flow.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      let rec drain () = match Session.step s with `Phase _ -> drain () | `Done -> () in
      drain ();
      (* the first cell whose 1 DBU move changes the HPWL *)
      let d = Session.design s in
      let hpwl = Design.total_hpwl d in
      let moved = ref false in
      Design.iter_cells d (fun c ->
          if not (!moved || Design.is_ff d c || Design.is_lcb d c) then begin
            let pos = Design.cell_pos d c in
            Design.move_cell d c (Point.make (pos.Point.x +. 1.0) pos.Point.y);
            if Design.total_hpwl d <> hpwl then moved := true else Design.move_cell d c pos
          end);
      checkb "a cell moved" true !moved;
      let r = Session.finish s in
      checkb "kept the final state" false r.Session.rolled_back;
      fail_all "sign-off after a late move" (fresh_diffs ~label:"late move" s r.Session.report))

(* The same contract on a forced rollback: every phase end pushes the
   flip-flops off the die, so the run ends on its start checkpoint. *)
let test_signoff_after_rollback () =
  List.iter
    (fun use_cts ->
      let label = Printf.sprintf "sign-off after rollback (use_cts %b)" use_cts in
      let config =
        {
          Session.default_config with
          Session.rounds = 1;
          use_cts;
          on_phase_end = Some push_ffs_off_die;
        }
      in
      (* a design whose inserted LCBs widen the clock root net, so a
         stale report would show in HPWL *)
      let design =
        Generator.generate
          { (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))) with Profile.seed = 2 }
      in
      let cells = Design.num_cells design in
      let s = Session.open_ ~config ~algo:Flow.Ours design in
      Fun.protect
        ~finally:(fun () -> Session.close s)
        (fun () ->
          let r = Session.finish s in
          checkb (label ^ ": rolled back") true r.Session.rolled_back;
          checkb (label ^ ": rolled back past inserted LCBs") use_cts
            (Design.num_cells design > cells);
          fail_all label (fresh_diffs ~label s r.Session.report)))
    [ false; true ]

(* Every node's arrival and required time at both corners, and its
   slew, as bits *)
let node_state timer =
  Array.init
    (Css_sta.Graph.num_nodes (Timer.graph timer))
    (fun n ->
      List.map Int64.bits_of_float
        [
          Timer.arrival timer Timer.Early n;
          Timer.arrival timer Timer.Late n;
          Timer.required timer Timer.Early n;
          Timer.required timer Timer.Late n;
          Timer.slew timer n;
        ])

(* A phase cut short by an interrupt realizes nothing, so its flip-flops
   still hold the scheduled latencies the scheduler applied. Scoring
   masks them on the live timer and puts them back: the report is a
   fresh evaluation, the latencies stay, and every node of the live
   timer comes back bitwise. *)
let test_score_interrupted_phase () =
  let design = Generator.generate (List.nth signoff_profiles 2) in
  let config =
    { Session.default_config with Session.debug_interrupt_after_iteration = Some 5 }
  in
  let s = Session.open_ ~config ~algo:Flow.Ours design in
  Fun.protect
    ~finally:(fun () ->
      Session.close s;
      Css_flow.Persist.clear_interrupt ())
    (fun () ->
      let rec drain () = match Session.step s with `Phase _ -> drain () | `Done -> () in
      drain ();
      let d = Session.design s in
      let held =
        List.filter_map
          (fun ff ->
            let l = Design.scheduled_latency d ff in
            if l <> 0.0 then Some (ff, l) else None)
          (Array.to_list (Design.ffs d))
      in
      checkb "the cut phase left latencies held" true (held <> []);
      let timer = Session.timer s in
      let before = node_state timer in
      let report = Session.score s in
      fail_all "score of the cut phase" (fresh_diffs ~label:"cut phase" s report);
      checkb "the held latencies move the live view" true
        (Timer.tns timer Timer.Late <> report.Evaluator.tns_late);
      checkb "latencies kept" true
        (List.for_all (fun (ff, l) -> Design.scheduled_latency d ff = l) held);
      checkb "node state restored" true (before = node_state timer);
      let r = Session.finish s in
      Alcotest.(check string) "stopped by the interrupt" "interrupted" r.Session.stop_reason;
      fail_all "sign-off of the cut run" (fresh_diffs ~label:"cut run" s r.Session.report))

(* {2 The fault corpus: random fault sequences, shrunk on failure} *)

(* Random edit sequences on a live timer, every mutator the flow uses,
   each pushed through the timer's own update path: every few edits the
   live score must be bitwise a fresh evaluation of an independent copy,
   constraint strings included. The score re-measures only the nets the
   edits marked, so a mutator that forgot a mark shows up here. *)
let scorer_under_edits_prop =
  let base = lazy (Generator.generate (Profile.scale 0.12 (Option.get (Profile.by_name "sb18")))) in
  QCheck.Test.make ~name:"live score = fresh evaluation under random edits" ~count:6
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let d = Flow.clone (Lazy.force base) in
      let timer = Timer.build d in
      let rng = Random.State.make [| seed; 29 |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let offset () = Random.State.float rng 600.0 -. 300.0 in
      let cells = Array.init (Design.num_cells d) Fun.id and ffs = Design.ffs d in
      let lcbs = ref (Design.lcbs d) in
      let root_net = Design.pin_net_id d (Design.port_pin d (Design.clock_root_id d)) in
      let moved c =
        Timer.update_moved_cells timer [ c ];
        if Design.is_lcb d c then Timer.update_latencies timer (Design.ffs_of_lcb d c)
      in
      let edit () =
        match Random.State.int rng 7 with
        | 0 ->
          let c = pick cells in
          Design.move_cell d c
            (Point.make (Design.cell_x d c +. offset ()) (Design.cell_y d c +. offset ()));
          moved c
        | 1 ->
          let c = pick cells in
          Design.move_cell d c (Design.cell_orig_pos d c);
          moved c
        | 2 ->
          let ff = pick ffs in
          Design.reconnect_ff_to_lcb d ~ff ~lcb:(pick !lcbs);
          Timer.update_latencies timer [ ff ]
        | 3 -> (
          let c = pick cells in
          match (Design.cell_master d c).Css_liberty.Cell.name with
          | "INV_X1" -> Timer.resize_cell timer c "INV_X4"
          | "INV_X4" -> Timer.resize_cell timer c "INV_X1"
          | "BUF_X2" -> Timer.resize_cell timer c "BUF_X4"
          | "BUF_X4" -> Timer.resize_cell timer c "BUF_X2"
          | _ -> ())
        | 4 ->
          let ff = pick ffs in
          Design.set_scheduled_latency d ff (Random.State.float rng 60.0 -. 20.0);
          Timer.update_latencies timer [ ff ]
        | 5 ->
          let ff = pick ffs in
          if Random.State.bool rng then begin
            let lo = Random.State.float rng 100.0 in
            Design.set_latency_bounds d ff ~lo ~hi:(lo +. Random.State.float rng 150.0)
          end
          else Design.clear_latency_bounds d ff
        | _ ->
          (* CTS-style growth: a new LCB on the clock root, hosting one FF *)
          let ff = pick ffs in
          let lcb =
            Design.add_cell d
              ~name:(Printf.sprintf "grown_lcb%d" (Array.length !lcbs))
              ~master:"LCB"
              ~pos:(Point.make (Design.cell_x d ff +. offset ()) (Design.cell_y d ff))
          in
          Design.net_add_sink d root_net (Design.cell_pin d lcb "CKI");
          ignore
            (Design.add_net d
               ~name:(Printf.sprintf "grown_ck%d" (Array.length !lcbs))
               ~driver:(Design.cell_pin d lcb "CKO") ~sinks:[]);
          Design.reconnect_ff_to_lcb d ~ff ~lcb;
          Timer.update_latencies timer [ ff ];
          lcbs := Array.append !lcbs [| lcb |]
      in
      let failures = ref [] in
      for k = 1 to 12 do
        for _ = 0 to Random.State.int rng 4 do
          edit ()
        done;
        let label = Printf.sprintf "seed %d, score %d" seed k in
        failures :=
          List.rev_append
            (Oracles.report_diffs ~label (Evaluator.evaluate (Flow.clone d)) (Evaluator.score timer))
            !failures
      done;
      match !failures with
      | [] -> true
      | fs -> QCheck.Test.fail_report (String.concat "\n" (List.rev fs)))

let base_corpus () =
  {
    Fault_seq.design_text = Io.to_string (Generator.micro ());
    Fault_seq.sdc_text =
      "create_clock -period 400\nset_clock_uncertainty -setup 5\nset_latency_bounds ffa 0 150\n";
    Fault_seq.library;
    Fault_seq.sabotage_late = false;
  }

let fault_seq_arb =
  QCheck.make
    ~print:Fault_seq.to_string
    ~shrink:(fun t yield -> Seq.iter yield (Fault_seq.shrink t))
    (QCheck.Gen.map (fun n -> Fault_seq.gen (Rng.create n)) (QCheck.Gen.int_bound 1_000_000))

let pipeline_survives_prop =
  QCheck.Test.make ~name:"pipeline degrades gracefully under fault sequences" ~count:25
    fault_seq_arb
    (fun t ->
      let corpus, _applied = Fault_seq.apply t (base_corpus ()) in
      match Oracles.pipeline corpus with
      | Ok _ -> true
      | Error msg ->
        QCheck.Test.fail_report
          (Printf.sprintf "%s\nreproduce with: %s" msg (Fault_seq.to_string t)))

(* {2 Resume identity: continuation must be invisible} *)

let fresh_dir () = Temp_dirs.dir "css-diff-test-"

let resume_algos = [ Css_flow.Flow.Ours; Css_flow.Flow.Iccss_plus; Css_flow.Flow.Fpm ]

(* the acceptance sweep: >= 3 profiles x 3 algorithms, killed at a
   completed-phase boundary, resumed from disk, final latencies bitwise
   identical to an uninterrupted run *)
let test_resume_identity_sweep () =
  List.iter
    (fun profile ->
      List.iter
        (fun algo ->
          let design = Generator.generate profile in
          let ctx =
            Printf.sprintf "resume/%s/%s" profile.Profile.name (Css_flow.Flow.algo_name algo)
          in
          fail_all ctx
            (Oracles.check_resume_identity ~kill_after_phase:1 design ~algo ~dir:(fresh_dir ())))
        resume_algos)
    (profiles 424242)

(* The checkpoint carries the run's settings, so the oracle's resume
   passes none: each of these runs, killed after its first phase, must
   continue exactly under a default config. *)
let resume_settings =
  let d = Css_flow.Flow.default_config in
  [
    ("default", d);
    ("use_resize", { d with Css_flow.Flow.use_resize = true });
    ("use_cts", { d with Css_flow.Flow.use_cts = true });
    ( "timer",
      {
        d with
        Css_flow.Flow.timer =
          { Timer.early_derate = 0.9; setup_uncertainty = 25.0; hold_uncertainty = 10.0 };
      } );
    ("rollback off", { d with Css_flow.Flow.rollback = false });
    ("final_eval and rollback off", { d with Css_flow.Flow.final_eval = false; rollback = false });
  ]

let test_resume_settings () =
  List.iter
    (fun (what, config) ->
      fail_all ("resume/" ^ what)
        (Oracles.check_resume_identity ~config ~kill_after_phase:1 (Generator.generate Profile.tiny)
           ~algo:Css_flow.Flow.Ours ~dir:(fresh_dir ())))
    resume_settings

(* mid-phase kills: the scheduler aborts between iterations, nothing of
   the partial phase survives, and the redo is bitwise the same *)
let resume_identity_prop =
  QCheck.Test.make ~name:"resume bitwise-identical killed at any boundary" ~count:8
    (QCheck.pair
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 30)))
    (fun (seed, kill_at) ->
      let design = Generator.generate { Profile.tiny with Profile.seed } in
      match
        Oracles.check_resume_identity ~kill_after_iteration:(kill_at + 1) design
          ~algo:Css_flow.Flow.Ours ~dir:(fresh_dir ())
      with
      | [] -> true
      | failures -> QCheck.Test.fail_report (String.concat "\n" failures))

(* crash injection: a torn write of the checkpoint file itself must be
   detected at load, never parsed into a half-state *)
let test_partial_write_detected () =
  let dir = fresh_dir () in
  let design = Generator.generate { Profile.tiny with Profile.seed = 7 } in
  let config =
    {
      Css_flow.Flow.default_config with
      Css_flow.Flow.checkpoint_dir = Some dir;
      Css_flow.Flow.rounds = 1;
    }
  in
  ignore (Css_flow.Flow.run ~config ~algo:Css_flow.Flow.Ours design);
  let file = Css_flow.Persist.path ~dir in
  let pristine = In_channel.with_open_bin file In_channel.input_all in
  (* every prefix of the file is a possible torn state after a crash
     mid-write over the final name (the atomic tmp+rename path never
     produces these; this guards the detection that backs it up) *)
  List.iter
    (fun frac ->
      let n = String.length pristine * frac / 100 in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (String.sub pristine 0 n));
      match Css_flow.Persist.load ~library:(Design.library design) ~dir with
      | Ok _ when frac < 100 -> Alcotest.failf "a %d%% prefix loaded as a valid checkpoint" frac
      | Ok _ -> ()
      | Error (d :: _) ->
        if not (String.length d.Css_util.Diag.code >= 5 && String.sub d.Css_util.Diag.code 0 5 = "CKPT-")
        then Alcotest.failf "prefix %d%%: rejection without a CKPT code (%s)" frac d.Css_util.Diag.code
      | Error [] -> Alcotest.fail "rejection without diagnostics")
    [ 0; 3; 17; 50; 90; 99; 100 ]

(* {2 The shrinker itself} *)

let test_roundtrip () =
  let sabotaged =
    {
      Fault_seq.seed = 9;
      steps =
        [
          { Fault_seq.salt = 5; op = Fault_seq.Fuzz_sdc 2 };
          { Fault_seq.salt = 77; op = Fault_seq.Sabotage_late };
        ];
    }
  in
  List.iter
    (fun t ->
      let s = Fault_seq.to_string t in
      match Fault_seq.of_string s with
      | Error e -> Alcotest.failf "%s does not re-parse: %s" s e
      | Ok t' ->
        Alcotest.(check string) (s ^ " round-trips") s (Fault_seq.to_string t');
        (* replaying the parsed form corrupts identically *)
        let c1, n1 = Fault_seq.apply t (base_corpus ()) in
        let c2, n2 = Fault_seq.apply t' (base_corpus ()) in
        Alcotest.(check int) "same applied count" n1 n2;
        Alcotest.(check string) "same design text" c1.Fault_seq.design_text
          c2.Fault_seq.design_text;
        Alcotest.(check string) "same sdc text" c1.Fault_seq.sdc_text c2.Fault_seq.sdc_text;
        checkb "same sabotage" c1.Fault_seq.sabotage_late c2.Fault_seq.sabotage_late)
    (List.map (fun seed -> Fault_seq.gen (Rng.create seed)) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    @ [ sabotaged ]);
  let c, _ = Fault_seq.apply sabotaged (base_corpus ()) in
  checkb "the sabotage op marks the corpus" true c.Fault_seq.sabotage_late

let test_shrink_stability () =
  (* removing steps must not change how the surviving steps corrupt:
     each step's rng is derived from (seed, salt), not list position *)
  let t = Fault_seq.gen ~max_len:5 (Rng.create 99) in
  match t.Fault_seq.steps with
  | [] | [ _ ] -> Alcotest.fail "generated sequence too short for the stability check"
  | _ :: rest ->
    let dropped = { t with Fault_seq.steps = rest } in
    let full, _ = Fault_seq.apply { t with Fault_seq.steps = rest } (base_corpus ()) in
    let again, _ = Fault_seq.apply dropped (base_corpus ()) in
    Alcotest.(check string) "suffix corrupts identically" full.Fault_seq.design_text
      again.Fault_seq.design_text

let test_minimize_planted_bug () =
  (* stand-in for a planted engine bug: the "engine" falls over whenever
     the corpus contains a grafted combinational loop AND a corrupted
     library. minimize must find a <= 3-step reproducer (here exactly 2:
     one Comb_loop, one Lib step, since removals are tried to a
     fixpoint) and print it replayably. *)
  let fails t =
    let has p = List.exists (fun (s : Fault_seq.step) -> p s.Fault_seq.op) t.Fault_seq.steps in
    has (function Fault_seq.Netlist Mutator.Comb_loop -> true | _ -> false)
    && has (function Fault_seq.Lib _ -> true | _ -> false)
  in
  (* grow until a failing sequence appears, as the fuzz CLI would *)
  let rec first_failing n =
    if n > 10_000 then Alcotest.fail "no failing sequence in 10000 trials"
    else
      let t = Fault_seq.gen ~max_len:8 (Rng.create n) in
      if fails t then t else first_failing (n + 1)
  in
  let t = first_failing 0 in
  let small = Fault_seq.minimize fails t in
  checkb "still failing" true (fails small);
  let len = List.length small.Fault_seq.steps in
  if len > 3 then
    Alcotest.failf "minimized to %d steps (> 3): %s" len (Fault_seq.to_string small);
  (* the reproducer replays *)
  match Fault_seq.of_string (Fault_seq.to_string small) with
  | Ok replay -> checkb "replay fails identically" true (fails replay)
  | Error e -> Alcotest.failf "reproducer does not re-parse: %s" e

let test_minimize_rejects_passing () =
  let t = Fault_seq.gen (Rng.create 5) in
  match Fault_seq.minimize (fun _ -> false) t with
  | _ -> Alcotest.fail "minimize accepted a passing input"
  | exception Invalid_argument _ -> ()

let () =
  Temp_dirs.run "differential"
    [
      ( "engines",
        [
          Alcotest.test_case "parity + feasibility (late)" `Quick
            (test_engine_parity Timer.Late "late");
          Alcotest.test_case "parity + feasibility (early)" `Quick
            (test_engine_parity Timer.Early "early");
        ] );
      ( "scorer",
        [
          Alcotest.test_case "identity sweep (3 profiles x 4 algos)" `Quick
            test_scorer_identity_sweep;
          Alcotest.test_case "identity with resize and CTS" `Quick
            test_scorer_identity_resize_cts;
          Alcotest.test_case "session deltas with rollback" `Quick test_scorer_under_deltas;
          Alcotest.test_case "sign-off = fresh evaluation" `Quick test_signoff_identity;
          Alcotest.test_case "sign-off after a forced rollback" `Quick test_signoff_after_rollback;
          Alcotest.test_case "sign-off reads the current design" `Quick
            test_signoff_reads_current_design;
          Alcotest.test_case "score of an interrupted phase" `Quick test_score_interrupted_phase;
          QCheck_alcotest.to_alcotest scorer_under_edits_prop;
        ] );
      ( "resume",
        [
          Alcotest.test_case "identity sweep (3 profiles x 3 algos)" `Quick
            test_resume_identity_sweep;
          Alcotest.test_case "identity under each setting, no flags on resume" `Quick
            test_resume_settings;
          QCheck_alcotest.to_alcotest resume_identity_prop;
          Alcotest.test_case "partial writes detected" `Quick test_partial_write_detected;
        ] );
      ( "fault-corpus",
        [
          QCheck_alcotest.to_alcotest pipeline_survives_prop;
          Alcotest.test_case "reproducers round-trip" `Quick test_roundtrip;
          Alcotest.test_case "shrinking is salt-stable" `Quick test_shrink_stability;
          Alcotest.test_case "planted bug shrinks to <= 3 steps" `Quick
            test_minimize_planted_bug;
          Alcotest.test_case "minimize rejects passing input" `Quick
            test_minimize_rejects_passing;
        ] );
    ]
