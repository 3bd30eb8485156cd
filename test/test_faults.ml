(* Fault-injection harness: corrupted designs and constraint files must
   degrade gracefully — a typed diagnostic or a repaired run, never an
   unhandled exception, and never a schedule worse than the input. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Sdc = Css_netlist.Sdc
module Validate = Css_netlist.Validate
module Diag = Css_util.Diag
module Rng = Css_util.Rng
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Mutator = Css_benchgen.Mutator
module Generator = Css_benchgen.Generator
module Timer = Css_sta.Timer
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow

let library = Css_liberty.Library.default
let checkb = Alcotest.check Alcotest.bool
let score (rep : Evaluator.report) = Float.min rep.Evaluator.wns_early rep.Evaluator.wns_late

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* {2 The netlist fault sweep} *)

(* After a successful (possibly recovered) parse, the rest of the
   hardened pipeline must also hold: validation repairs or rejects, and
   an accepted flow run never ends worse than its (repaired) input. *)
let downstream_graceful ctx design =
  match Validate.run design with
  | outcome when outcome.Validate.fatal -> ()
  | _ -> (
    let before = Evaluator.evaluate (Flow.clone design) in
    match Flow.run ~config:{ Flow.default_config with Flow.rounds = 1 } ~algo:Flow.Ours design with
    | r ->
      if score r.Flow.report < score before -. 1e-6 then
        Alcotest.failf "%s: accepted a schedule worse than the input (%.2f < %.2f)" ctx
          (score r.Flow.report) (score before)
    | exception Validate.Invalid _ -> ())
  | exception e -> Alcotest.failf "%s: validation raised %s" ctx (Printexc.to_string e)

let test_netlist_fault fault () =
  let base = Io.to_string (Generator.micro ()) in
  List.iter
    (fun seed ->
      let rng = Rng.create ((1000 * seed) + 7) in
      let corrupted, _ = Mutator.corrupt fault rng base in
      List.iter
        (fun (policy, pname) ->
          let ctx = Printf.sprintf "%s/%s/seed%d" (Mutator.name fault) pname seed in
          match Io.of_string ~policy ~library corrupted with
          | Ok (design, _) -> downstream_graceful ctx design
          | Error ds ->
            if ds = [] then Alcotest.failf "%s: Error carries no diagnostics" ctx;
            if not (Diag.has_errors ds) then
              Alcotest.failf "%s: Error without an error-severity diagnostic" ctx;
            List.iter
              (fun (d : Diag.t) ->
                if d.Diag.code = "" then Alcotest.failf "%s: diagnostic without a code" ctx)
              ds
          | exception e -> Alcotest.failf "%s: unhandled %s" ctx (Printexc.to_string e))
        [ (Io.Abort, "abort"); (Io.Recover, "recover") ])
    [ 0; 1; 2 ]

(* {2 The SDC fault sweep} *)

let base_sdc =
  "create_clock -period 400\nset_clock_uncertainty -setup 5\nset_latency_bounds ffa 0 150\n"

let test_sdc_fault fault () =
  let rng = Rng.create 42 in
  let corrupted, _ = Mutator.corrupt_sdc fault rng base_sdc in
  List.iter
    (fun (policy, pname) ->
      let ctx = Printf.sprintf "%s/%s" (Mutator.sdc_name fault) pname in
      match Sdc.parse ~policy corrupted with
      | Ok (t, _) -> (
        let design = Generator.micro () in
        match Sdc.apply ~policy t design with
        | Ok _ -> ()
        | Error ds ->
          if not (Diag.has_errors ds) then Alcotest.failf "%s: apply Error without error" ctx
        | exception e -> Alcotest.failf "%s: apply raised %s" ctx (Printexc.to_string e))
      | Error ds ->
        if not (Diag.has_errors ds) then Alcotest.failf "%s: parse Error without error" ctx
      | exception e -> Alcotest.failf "%s: unhandled %s" ctx (Printexc.to_string e))
    [ (Sdc.Abort, "abort"); (Sdc.Recover, "recover") ]

let test_sdc_nearest_name_hint () =
  let design = Generator.micro () in
  (* "ffz" is one edit from the real "ffa"/"ffb"/"ffc"; the earliest
     candidate wins the tie *)
  let t = { Sdc.empty with Sdc.latency_bounds = [ ("ffz", 0.0, 100.0) ] } in
  (match Sdc.apply t design with
  | Error [ d ] ->
    Alcotest.(check string) "code" "SDC-003" d.Diag.code;
    (match d.Diag.hint with
    | Some h -> checkb "hint suggests ffa" true (h = {|did you mean "ffa"?|})
    | None -> Alcotest.fail "expected a nearest-name hint")
  | _ -> Alcotest.fail "expected exactly one SDC-003 error");
  match Sdc.apply_exn t design with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure m ->
    checkb "legacy message carries the hint" true
      (String.length m > 0
      && contains ~sub:"did you mean" m)

let test_sdc_unknown_command_hint () =
  match Sdc.parse "set_cock_uncertainty -setup 10" with
  | Error [ d ] ->
    Alcotest.(check string) "code" "SDC-001" d.Diag.code;
    checkb "hint present" true (d.Diag.hint = Some {|did you mean "set_clock_uncertainty"?|})
  | _ -> Alcotest.fail "expected exactly one SDC-001 error"

(* {2 Validation and repair} *)

let test_validate_repairs () =
  let design = Generator.micro () in
  let ff = (Design.ffs design).(0) in
  let gate =
    (* some non-FF cell *)
    let found = ref (-1) in
    Design.iter_cells design (fun c ->
        if !found < 0 && (not (Design.is_ff design c)) && not (Design.is_lcb design c) then
          found := c);
    !found
  in
  Design.set_scheduled_latency design ff infinity;
  Design.move_cell design gate (Point.make Float.nan 5.0);
  let o = Validate.run design in
  checkb "not fatal" false o.Validate.fatal;
  checkb "repairs counted" true (o.Validate.repairs >= 2);
  checkb "latency repaired" true (Float.is_finite (Design.scheduled_latency design ff));
  checkb "position repaired" true (Float.is_finite (Design.cell_pos design gate).Point.x);
  (* repair:false reports the same findings but touches nothing *)
  let design2 = Generator.micro () in
  Design.set_scheduled_latency design2 (Design.ffs design2).(0) infinity;
  let o2 = Validate.run ~repair:false design2 in
  checkb "no-repair mode is fatal" true o2.Validate.fatal;
  checkb "no-repair mode repairs nothing" true (o2.Validate.repairs = 0)

let test_validate_zero_period () =
  let die = Rect.make ~lx:0.0 ~ly:0.0 ~hx:100.0 ~hy:100.0 in
  let design = Design.create ~name:"bad" ~library ~die ~clock_period:0.0 () in
  let o = Validate.run design in
  checkb "fatal" true o.Validate.fatal;
  checkb "VAL-001 reported" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "VAL-001") o.Validate.diags);
  match Validate.run_exn design with
  | _ -> Alcotest.fail "run_exn should raise"
  | exception Validate.Invalid ds -> checkb "diags carried" true (ds <> [])

let test_validate_comb_cycle () =
  let die = Rect.make ~lx:0.0 ~ly:0.0 ~hx:1000.0 ~hy:1000.0 in
  let design = Design.create ~name:"loop" ~library ~die ~clock_period:400.0 () in
  let i1 = Design.add_cell design ~name:"i1" ~master:"INV_X1" ~pos:(Point.make 10.0 10.0) in
  let i2 = Design.add_cell design ~name:"i2" ~master:"INV_X1" ~pos:(Point.make 20.0 20.0) in
  ignore
    (Design.add_net design ~name:"a" ~driver:(Design.cell_pin design i1 "Z")
       ~sinks:[ Design.cell_pin design i2 "A" ]);
  ignore
    (Design.add_net design ~name:"b" ~driver:(Design.cell_pin design i2 "Z")
       ~sinks:[ Design.cell_pin design i1 "A" ]);
  let o = Validate.run design in
  checkb "fatal" true o.Validate.fatal;
  match List.find_opt (fun (d : Diag.t) -> d.Diag.code = "VAL-007") o.Validate.diags with
  | Some d ->
    checkb "cycle members named" true (contains ~sub:"i1" d.Diag.message)
  | None -> Alcotest.fail "expected a VAL-007 combinational-cycle diagnostic"

(* {2 Watchdogs} *)

let test_scheduler_converges_normally () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let res, _ = Engine.run_ours timer ~corner:Timer.Late in
  checkb "converged" true (res.Scheduler.stop_reason = Scheduler.Converged)

let test_howard_rejects_nonfinite () =
  let g = Css_mmwc.Digraph.make ~n:2 [ (0, 1, 5.0); (1, 0, Float.nan) ] in
  match Css_mmwc.Howard.min_mean_cycle g with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
    checkb "names the edge" true (contains ~sub:"non-finite" m)

(* {2 Checkpoint / rollback} *)

let test_flow_rollback () =
  let design = Generator.micro () in
  let before = Evaluator.evaluate (Generator.micro ()) in
  (* sabotage the late phase: shove every flip-flop off the die so wire
     delays explode — a deliberately regressing OPT outcome *)
  let sabotage ~round:_ ~phase d =
    if phase = "late" then
      Array.iter
        (fun ff ->
          let p = Design.cell_pos d ff in
          Design.move_cell d ff (Point.make (p.Point.x +. 5.0e6) p.Point.y))
        (Design.ffs d)
  in
  let config =
    { Flow.default_config with Flow.rounds = 1; Flow.on_phase_end = Some sabotage }
  in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checkb "rolled back" true r.Flow.rolled_back;
  (* the reported state is the checkpoint's, and the design on disk
     agrees with it: re-evaluating reproduces the reported WNS exactly *)
  let re = Evaluator.evaluate design in
  Alcotest.(check (float 1e-6)) "early WNS restored" r.Flow.report.Evaluator.wns_early
    re.Evaluator.wns_early;
  Alcotest.(check (float 1e-6)) "late WNS restored" r.Flow.report.Evaluator.wns_late
    re.Evaluator.wns_late;
  checkb "never worse than the input" true (score r.Flow.report >= score before -. 1e-6)

(* Regression: a CTS run whose rollback (or phase hook) resyncs the live
   timer over the LCBs CTS inserted used to index past the timing
   graph's pin table. The LCBs stay after the rollback, and the report
   scores the restored design with them: it matches a re-evaluation in
   every field. *)
let test_flow_rollback_after_cts () =
  let module Profile = Css_benchgen.Profile in
  let profile = Profile.scale 0.12 (Option.get (Profile.by_name "sb18")) in
  let design = Generator.generate { profile with Profile.seed = 2 } in
  let cells = Design.num_cells design in
  let sabotage ~round:_ ~phase d =
    if phase = "late" then
      Array.iter
        (fun ff ->
          let p = Design.cell_pos d ff in
          Design.move_cell d ff (Point.make (p.Point.x +. 5.0e6) p.Point.y))
        (Design.ffs d)
  in
  let config =
    { Flow.default_config with Flow.rounds = 1; use_cts = true; on_phase_end = Some sabotage }
  in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checkb "CTS inserted LCBs" true (Design.num_cells design > cells);
  checkb "rolled back" true r.Flow.rolled_back;
  match
    Css_oracle.Oracles.report_diffs ~label:"rolled back past CTS" (Evaluator.evaluate design)
      r.Flow.report
  with
  | [] -> ()
  | diffs -> Alcotest.fail (String.concat "\n" diffs)

let test_flow_no_rollback_when_clean () =
  let design = Generator.micro () in
  let r = Flow.run ~algo:Flow.Ours design in
  checkb "no rollback on a normal run" false r.Flow.rolled_back;
  checkb "stop reason sane" true
    (List.mem r.Flow.stop_reason [ "clean"; "max-rounds"; "stalled" ])

(* {2 Fault coverage: every fault must actually fire}

   A fault that reports [`Noop] on every seed of the sweep tested
   nothing — the sweep would pass vacuously. Satellite requirement:
   fail loudly instead. *)

let applies_somewhere corrupt target =
  List.exists (fun seed -> snd (corrupt (Rng.create seed) target) = `Applied)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_netlist_fault_coverage () =
  let base = Io.to_string (Generator.micro ()) in
  List.iter
    (fun f ->
      checkb (Mutator.name f ^ " applies") true
        (applies_somewhere (Mutator.corrupt f) base))
    Mutator.all

let test_sdc_fault_coverage () =
  List.iter
    (fun f ->
      checkb (Mutator.sdc_name f ^ " applies") true
        (applies_somewhere (Mutator.corrupt_sdc f) base_sdc))
    Mutator.all_sdc

let test_lib_fault_coverage () =
  List.iter
    (fun f ->
      checkb (Mutator.lib_name f ^ " applies") true
        (List.exists
           (fun seed -> snd (Mutator.corrupt_library f (Rng.create seed) library) = `Applied)
           [ 0; 1; 2; 3; 4; 5; 6; 7 ]))
    Mutator.all_lib

let test_noop_reported () =
  (* a fault with no possible target must say so *)
  let text, outcome = Mutator.corrupt Mutator.Drop_net (Rng.create 1) "design d period 100\n" in
  checkb "noop flagged" true (outcome = `Noop);
  Alcotest.(check string) "text untouched" "design d period 100\n" text;
  let _, fuzz_outcome = Mutator.fuzz_bytes (Rng.create 1) "" in
  checkb "empty fuzz is a noop" true (fuzz_outcome = `Noop)

(* {2 Liberty-model corruption} *)

let lib_expected_code = function
  | Mutator.Lib_no_ff -> "LIB-001"
  | Mutator.Lib_no_lcb -> "LIB-002"
  | Mutator.Lib_nan_cap | Mutator.Lib_negative_drive -> "LIB-003"
  | Mutator.Lib_nan_ff_params | Mutator.Lib_nan_insertion -> "LIB-004"
  | Mutator.Lib_orphan_arc -> "LIB-005"
  | Mutator.Lib_poison_model -> "LIB-006"
  | Mutator.Lib_no_ckq_arc -> "LIB-007"
  | Mutator.Lib_negative_area -> "LIB-008"

let test_lib_fault fault () =
  let expected = lib_expected_code fault in
  List.iter
    (fun seed ->
      let ctx = Printf.sprintf "%s/seed%d" (Mutator.lib_name fault) seed in
      let corrupted, outcome = Mutator.corrupt_library fault (Rng.create seed) library in
      if outcome = `Applied then begin
        let diags = Css_liberty.Library.validate corrupted in
        if not (Diag.has_errors diags) then
          Alcotest.failf "%s: corruption not detected by Library.validate" ctx;
        if not (List.exists (fun (d : Diag.t) -> d.Diag.code = expected) diags) then
          Alcotest.failf "%s: expected %s, got [%s]" ctx expected
            (String.concat "; " (List.map (fun (d : Diag.t) -> d.Diag.code) diags))
      end)
    [ 0; 1; 2 ];
  (* the pristine library stays clean, i.e. detection is not vacuous *)
  checkb "default library validates" true (Css_liberty.Library.validate library = [])

(* {2 Structural faults reach their validator codes} *)

let parse_corrupted fault seed =
  let base = Io.to_string (Generator.micro ()) in
  let corrupted, outcome = Mutator.corrupt fault (Rng.create seed) base in
  checkb (Mutator.name fault ^ " applied") true (outcome = `Applied);
  match Io.of_string ~policy:Io.Recover ~library corrupted with
  | Ok (design, _) -> design
  | Error ds ->
    Alcotest.failf "%s: corrupted design did not parse: %s" (Mutator.name fault)
      (String.concat "; " (List.map Diag.to_string ds))

let test_split_clock_domain () =
  let design = parse_corrupted Mutator.Split_clock_domain 3 in
  let o = Validate.run design in
  checkb "repaired, not fatal" false o.Validate.fatal;
  checkb "VAL-009 fired" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "VAL-009") o.Validate.diags);
  downstream_graceful "split-clock-domain" design

let test_disconnect_subgraph () =
  let design = parse_corrupted Mutator.Disconnect_subgraph 3 in
  let o = Validate.run design in
  checkb "VAL-005 fired" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "VAL-005") o.Validate.diags)

let test_comb_loop_fault () =
  let design = parse_corrupted Mutator.Comb_loop 3 in
  let o = Validate.run design in
  checkb "fatal" true o.Validate.fatal;
  checkb "VAL-007 fired" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "VAL-007") o.Validate.diags)

let test_fanout_explosion () =
  let design = parse_corrupted Mutator.Fanout_explosion 3 in
  downstream_graceful "fanout-explosion" design

(* {2 Byte-level parser fuzzing}

   Grammar-blind corruption: the front-ends must return a typed result
   on any byte string, under both policies. *)

let test_fuzz_io () =
  let base = Io.to_string (Generator.micro ()) in
  for seed = 0 to 39 do
    let fuzzed, _ = Mutator.fuzz_bytes ~ops:(1 + (seed mod 12)) (Rng.create seed) base in
    List.iter
      (fun policy ->
        match Io.of_string ~policy ~library fuzzed with
        | Ok _ -> ()
        | Error ds ->
          if ds = [] then Alcotest.failf "fuzz-io/seed%d: Error carries no diagnostics" seed
        | exception e ->
          Alcotest.failf "fuzz-io/seed%d: unhandled %s" seed (Printexc.to_string e))
      [ Io.Abort; Io.Recover ]
  done

let test_fuzz_sdc () =
  for seed = 0 to 39 do
    let fuzzed, _ = Mutator.fuzz_bytes ~ops:(1 + (seed mod 12)) (Rng.create (seed + 100)) base_sdc in
    List.iter
      (fun policy ->
        match Sdc.parse ~policy fuzzed with
        | Ok _ -> ()
        | Error ds ->
          if ds = [] then Alcotest.failf "fuzz-sdc/seed%d: Error carries no diagnostics" seed
        | exception e ->
          Alcotest.failf "fuzz-sdc/seed%d: unhandled %s" seed (Printexc.to_string e))
      [ Sdc.Abort; Sdc.Recover ]
  done

(* {2 Timer consistency through corrupt-and-roll-back}

   Checkpoint a design, corrupt its placement and latencies, restore the
   checkpoint, and require the incrementally maintained timer to agree
   with a freshly built one on every node's arrival and required time at
   both corners — groundwork for incremental timer checkpointing. *)

let test_rollback_timer_consistency () =
  let module Graph = Css_sta.Graph in
  let design = Generator.micro () in
  let timer = Timer.build design in
  let ffs = Array.to_list (Design.ffs design) in
  let cells = ref [] in
  Design.iter_cells design (fun c -> cells := c :: !cells);
  let cells = List.rev !cells in
  (* checkpoint *)
  let saved_pos = List.map (fun c -> (c, Design.cell_pos design c)) cells in
  let saved_lat = List.map (fun ff -> (ff, Design.scheduled_latency design ff)) ffs in
  (* corrupt: scatter every cell and skew every flip-flop *)
  List.iteri
    (fun i c ->
      let p = Design.cell_pos design c in
      Design.move_cell design c
        (Point.make (p.Point.x +. float_of_int ((i * 37) mod 900)) (p.Point.y +. 55.0)))
    cells;
  List.iteri (fun i ff -> Design.set_scheduled_latency design ff (float_of_int (i + 1) *. 13.0)) ffs;
  Timer.update_moved_cells timer cells;
  Timer.update_latencies timer ffs;
  (* roll back *)
  List.iter (fun (c, p) -> Design.move_cell design c p) saved_pos;
  List.iter (fun (ff, l) -> Design.set_scheduled_latency design ff l) saved_lat;
  Timer.update_moved_cells timer cells;
  Timer.update_latencies timer ffs;
  (* the incremental state must agree with a from-scratch build *)
  let fresh = Timer.build design in
  let n = Graph.num_nodes (Timer.graph timer) in
  Alcotest.(check int) "same graph" n (Graph.num_nodes (Timer.graph fresh));
  let close ctx a b =
    let same =
      (Float.is_finite a && Float.is_finite b && Float.abs (a -. b) <= 1e-6)
      || Int64.bits_of_float a = Int64.bits_of_float b (* inf/nan compare bitwise *)
    in
    if not same then Alcotest.failf "%s: incremental %.9g vs fresh %.9g" ctx a b
  in
  for node = 0 to n - 1 do
    List.iter
      (fun (corner, cname) ->
        close
          (Printf.sprintf "arrival/%s/node%d" cname node)
          (Timer.arrival timer corner node) (Timer.arrival fresh corner node);
        close
          (Printf.sprintf "required/%s/node%d" cname node)
          (Timer.required timer corner node) (Timer.required fresh corner node))
      [ (Timer.Early, "early"); (Timer.Late, "late") ]
  done;
  close "wns early" (Timer.wns timer Timer.Early) (Timer.wns fresh Timer.Early);
  close "wns late" (Timer.wns timer Timer.Late) (Timer.wns fresh Timer.Late)

let test_flow_validation_diags_surface () =
  let design = Generator.micro () in
  Design.set_scheduled_latency design (Design.ffs design).(0) Float.nan;
  let r = Flow.run ~algo:Flow.Ours design in
  checkb "validation diagnostics surfaced" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "VAL-003") r.Flow.validation)

(* {2 A failed durable write}

   A base is written to a temporary file and renamed; a journal record
   is appended. Pointing either at /dev/full makes the write fail with
   ENOSPC after the file opened. The files must keep the previous state,
   loadable, a temporary link must be cleaned up, and a durable session
   must keep serving: a lost write costs durability, never the answer. *)

module Session = Css_flow.Session
module Persist = Css_flow.Persist
module Obs = Css_util.Obs

let exists_no_follow path =
  match Unix.lstat path with _ -> true | exception Unix.Unix_error _ -> false

let durable_config ~obs dir =
  {
    Session.default_config with
    Session.rounds = 1;
    final_eval = false;
    rollback = false;
    obs;
    checkpoint_dir = Some dir;
  }

let failed obs = Option.value ~default:0 (List.assoc_opt "flow.persist_failed" (Obs.counters obs))
let read f = In_channel.with_open_bin f In_channel.input_all

let test_failed_checkpoint_write () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = Temp_dirs.dir "css-faults-" and other = Temp_dirs.dir "css-faults-" in
  let obs = Obs.create () in
  let design = Generator.micro () in
  let s = Session.open_ ~config:(durable_config ~obs dir) ~algo:Session.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      (* a save into another directory writes a base there *)
      Session.save s ~dir:other;
      let final = Persist.path ~dir:other in
      let tmp = final ^ ".tmp" in
      let before = read final in
      Unix.symlink "/dev/full" tmp;
      (match Session.save s ~dir:other with
      | () -> Alcotest.fail "a checkpoint write to /dev/full succeeded"
      | exception Sys_error msg ->
        checkb ("save raises ENOSPC: " ^ msg) true (contains ~sub:"No space left on device" msg));
      checkb "the tmp link is removed" false (exists_no_follow tmp);
      checkb "the previous checkpoint is intact" true (read final = before);
      checkb "the previous checkpoint loads" true (Result.is_ok (Persist.load ~library ~dir:other));
      Alcotest.check Alcotest.int "a direct save is not a session failure" 0 (failed obs);
      (* the next durable request replaces the design, so its first write
         is a base: that one fails, the rest land *)
      let tmp = Persist.path ~dir ^ ".tmp" in
      Unix.symlink "/dev/full" tmp;
      (match Session.apply_delta s [ Session.Replace_design (Io.to_string design) ] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "the durable request failed with its checkpoint write");
      Alcotest.check Alcotest.int "flow.persist_failed counts the lost write" 1 (failed obs);
      checkb "the tmp link is removed after the request" false (exists_no_follow tmp);
      checkb "the request's checkpoint loads" true (Result.is_ok (Persist.load ~library ~dir)))

(* The append goes to /dev/full: the request still answers what an
   in-memory session answers, the lost record is counted and warned
   about, and the next write starts a new base, which replaces the link
   with a real journal. *)
let test_failed_journal_append () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = Temp_dirs.dir "css-faults-" in
  let obs = Obs.create () in
  let design = Generator.micro () in
  let ff = Design.cell_name design (Design.ffs design).(0) in
  let request = [ Session.Set_latency { ff; latency = 2.0 } ] in
  let latencies s =
    let d = Session.design s in
    Array.map (fun ff -> Int64.bits_of_float (Design.scheduled_latency d ff)) (Design.ffs d)
  in
  let reference =
    let config = { (durable_config ~obs:Obs.null dir) with Session.checkpoint_dir = None } in
    let s = Session.open_ ~config ~algo:Session.Ours (Generator.micro ()) in
    Fun.protect
      ~finally:(fun () -> Session.close s)
      (fun () ->
        ignore (Session.finish s);
        ignore (Session.apply_delta s request);
        latencies s)
  in
  let s = Session.open_ ~config:(durable_config ~obs dir) ~algo:Session.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      let journal = Persist.journal_path ~dir in
      Sys.remove journal;
      Unix.symlink "/dev/full" journal;
      let warnings = Logs.warn_count () in
      (match Session.apply_delta s request with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "the durable request failed with its journal append");
      Alcotest.check Alcotest.int "flow.persist_failed counts the lost record" 1 (failed obs);
      checkb "a warning names the lost record" true (Logs.warn_count () > warnings);
      checkb "the answer is the in-memory one" true (latencies s = reference);
      checkb "the journal is a file again" true
        ((Unix.lstat journal).Unix.st_kind = Unix.S_REG);
      match Session.reopen ~library:(Design.library design) ~dir () with
      | Error _ -> Alcotest.fail "the checkpoint does not reopen after the lost record"
      | Ok r ->
        let same = Io.to_string (Session.design r) = Io.to_string (Session.design s) in
        Session.close r;
        checkb "reopen restores the live design" true same)

let () =
  let netlist_cases =
    List.map
      (fun f -> Alcotest.test_case (Mutator.name f) `Quick (test_netlist_fault f))
      Mutator.all
  in
  let sdc_cases =
    List.map
      (fun f -> Alcotest.test_case (Mutator.sdc_name f) `Quick (test_sdc_fault f))
      Mutator.all_sdc
  in
  let lib_cases =
    List.map
      (fun f -> Alcotest.test_case (Mutator.lib_name f) `Quick (test_lib_fault f))
      Mutator.all_lib
  in
  Temp_dirs.run "faults"
    [
      ("netlist-faults", netlist_cases);
      ("sdc-faults", sdc_cases);
      ("lib-faults", lib_cases);
      ( "coverage",
        [
          Alcotest.test_case "every netlist fault fires" `Quick test_netlist_fault_coverage;
          Alcotest.test_case "every sdc fault fires" `Quick test_sdc_fault_coverage;
          Alcotest.test_case "every lib fault fires" `Quick test_lib_fault_coverage;
          Alcotest.test_case "noop is reported" `Quick test_noop_reported;
        ] );
      ( "structural",
        [
          Alcotest.test_case "split clock domain -> VAL-009" `Quick test_split_clock_domain;
          Alcotest.test_case "disconnected subgraph -> VAL-005" `Quick test_disconnect_subgraph;
          Alcotest.test_case "combinational loop -> VAL-007" `Quick test_comb_loop_fault;
          Alcotest.test_case "fanout explosion degrades gracefully" `Quick test_fanout_explosion;
        ] );
      ( "byte-fuzz",
        [
          Alcotest.test_case "io front-end" `Quick test_fuzz_io;
          Alcotest.test_case "sdc front-end" `Quick test_fuzz_sdc;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "sdc nearest-name hint" `Quick test_sdc_nearest_name_hint;
          Alcotest.test_case "sdc command hint" `Quick test_sdc_unknown_command_hint;
        ] );
      ( "validate",
        [
          Alcotest.test_case "repairs numerics" `Quick test_validate_repairs;
          Alcotest.test_case "zero period fatal" `Quick test_validate_zero_period;
          Alcotest.test_case "combinational cycle fatal" `Quick test_validate_comb_cycle;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "scheduler converges" `Quick test_scheduler_converges_normally;
          Alcotest.test_case "howard rejects non-finite" `Quick test_howard_rejects_nonfinite;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "regressing phase rolls back" `Quick test_flow_rollback;
          Alcotest.test_case "rollback after CTS insertion" `Quick test_flow_rollback_after_cts;
          Alcotest.test_case "clean run keeps result" `Quick test_flow_no_rollback_when_clean;
          Alcotest.test_case "validation surfaces in result" `Quick
            test_flow_validation_diags_surface;
          Alcotest.test_case "timer consistent after roll back" `Quick
            test_rollback_timer_consistency;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "failed checkpoint write keeps the previous one" `Quick
            test_failed_checkpoint_write;
          Alcotest.test_case "failed journal append keeps serving" `Quick
            test_failed_journal_append;
        ] );
    ]
