(* Integration tests: the four end-to-end flows on generated designs —
   the relationships Table I reports must hold in miniature. *)

module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Persist = Css_flow.Persist
module Budget = Css_util.Budget
module Diag = Css_util.Diag
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

let small_profile () = Profile.scale 0.35 (Option.get (Profile.by_name "sb18"))

let base_design = lazy (Generator.generate (small_profile ()))

let run algo =
  let design = Flow.clone (Lazy.force base_design) in
  Flow.run ~algo design

let ours = lazy (run Flow.Ours)
let ours_early = lazy (run Flow.Ours_early)
let iccss = lazy (run Flow.Iccss_plus)
let fpm = lazy (run Flow.Fpm)

let test_clone_is_deep () =
  let d = Lazy.force base_design in
  let c = Flow.clone d in
  let ff = (Design.ffs c).(0) in
  Design.set_scheduled_latency c ff 99.0;
  checkb "original untouched" true (Design.scheduled_latency d (Design.ffs d).(0) = 0.0)

let test_flow_improves_early () =
  let before = Evaluator.evaluate (Flow.clone (Lazy.force base_design)) in
  let r = Lazy.force ours in
  checkb "early TNS improved" true (r.Flow.report.Evaluator.tns_early > before.Evaluator.tns_early);
  checkb "early WNS improved" true (r.Flow.report.Evaluator.wns_early > before.Evaluator.wns_early)

let test_flow_improves_late () =
  let before = Evaluator.evaluate (Flow.clone (Lazy.force base_design)) in
  let r = Lazy.force ours in
  checkb "late TNS improved" true (r.Flow.report.Evaluator.tns_late > before.Evaluator.tns_late)

let test_flow_respects_constraints () =
  checkb "ours constraints" true ((Lazy.force ours).Flow.report.Evaluator.constraint_errors = []);
  checkb "iccss constraints" true ((Lazy.force iccss).Flow.report.Evaluator.constraint_errors = []);
  checkb "fpm constraints" true ((Lazy.force fpm).Flow.report.Evaluator.constraint_errors = [])

let test_ours_vs_iccss_same_quality () =
  let a = Lazy.force ours and b = Lazy.force iccss in
  let close x y tol = Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
  checkb "late TNS within 10%" true
    (close a.Flow.report.Evaluator.tns_late b.Flow.report.Evaluator.tns_late 0.10);
  checkb "early TNS comparable" true
    (close a.Flow.report.Evaluator.tns_early b.Flow.report.Evaluator.tns_early 0.25
    || Float.abs (a.Flow.report.Evaluator.tns_early -. b.Flow.report.Evaluator.tns_early) < 25.0)

let test_ours_extracts_fewer_edges_than_iccss () =
  (* compared per CSS phase on the same timer state — the flow-level
     totals only separate at benchmark scale (see bench/EXPERIMENTS) *)
  let design1 = Flow.clone (Lazy.force base_design) in
  let t1 = Css_sta.Timer.build design1 in
  let _, s1 = Css_core.Engine.run_ours t1 ~corner:Css_sta.Timer.Late in
  let design2 = Flow.clone (Lazy.force base_design) in
  let t2 = Css_sta.Timer.build design2 in
  let _, s2 = Css_baselines.Iccss_plus.run t2 ~corner:Css_sta.Timer.Late in
  checkb "fewer edges (the -90% claim, in shape)" true
    (s1.Css_seqgraph.Extract.edges_extracted < s2.Css_seqgraph.Extract.edges_extracted)

let test_extracted_below_full_graph () =
  (* the heart of the paper: the iterative engine's partial graph stays
     a strict subset of the full sequential graph, and the obs counters
     agree with the engine's own statistics *)
  let design = Flow.clone (Lazy.force base_design) in
  let obs = Css_util.Obs.create () in
  let timer = Css_sta.Timer.build ~obs design in
  let _, s = Css_core.Engine.run_ours ~obs timer ~corner:Css_sta.Timer.Late in
  let design_full = Flow.clone (Lazy.force base_design) in
  let timer_full = Css_sta.Timer.build design_full in
  let verts = Css_seqgraph.Vertex.of_design design_full in
  let sf =
    Css_seqgraph.Extract.stats
      (Css_seqgraph.Extract.run ~engine:Css_seqgraph.Extract.Full timer_full verts
         ~corner:Css_sta.Timer.Late)
  in
  let extracted = s.Css_seqgraph.Extract.edges_extracted in
  let full = sf.Css_seqgraph.Extract.edges_extracted in
  checkb "full graph is non-trivial" true (full > 0);
  checkb "extracted < full" true (extracted < full);
  checkb "counter matches engine stats" true
    (List.assoc_opt "extract.essential.edges" (Css_util.Obs.counters obs) = Some extracted)

(* The zero-increment crawl: with the css_opt defaults on the sb18
   preset, every scheduler phase must end on its own, and at most one of
   its iterations may raise no latency while the graph stays unchanged
   (the round that confirms extraction is quiescent). *)
let test_no_zero_increment_crawl () =
  let design = Generator.generate (Option.get (Profile.by_name "sb18")) in
  let obs = Css_util.Obs.create () in
  ignore (Flow.run ~config:{ Flow.default_config with Flow.obs } ~algo:Flow.Ours design);
  let module J = Css_util.Obs.Json in
  let field fields name = List.assoc name fields in
  let snaps label =
    List.filter_map
      (fun (l, _, fields) -> if l = label then Some fields else None)
      (Css_util.Obs.snapshots obs)
  in
  let phases = snaps "sched.phase" in
  checkb "phases reported" true (phases <> []);
  List.iter
    (fun fields ->
      checkb "phase ends on its own" true
        (field fields "stop_reason" <> J.String "max-iterations"))
    phases;
  let eps = Css_core.Scheduler.eps in
  let idle fields =
    match (field fields "max_increment", field fields "edges_new") with
    | J.Float inc, J.Int 0 -> inc <= eps && field fields "handled_cycle" = J.Bool false
    | _ -> false
  in
  (* iteration indices restart at 1 with every phase *)
  let per_phase =
    List.fold_left
      (fun acc fields ->
        match (field fields "iter", acc) with
        | J.Int 1, _ | _, [] -> (if idle fields then 1 else 0) :: acc
        | _, n :: rest -> (if idle fields then n + 1 else n) :: rest)
      [] (snaps "sched.iter")
  in
  checki "one trace per phase" (List.length phases) (List.length per_phase);
  List.iter (fun n -> checkb "at most one idle iteration per phase" true (n <= 1)) per_phase

let test_ours_early_beats_fpm () =
  let a = Lazy.force ours_early and b = Lazy.force fpm in
  checkb "early TNS at least as good" true
    (a.Flow.report.Evaluator.tns_early >= b.Flow.report.Evaluator.tns_early -. 1e-6);
  checkb "FPM walked more of the gate-level graph" true (b.Flow.cone_nodes > a.Flow.cone_nodes)

let test_ours_early_leaves_late_untouched () =
  let before = Evaluator.evaluate (Flow.clone (Lazy.force base_design)) in
  let r = Lazy.force ours_early in
  (* early-only optimization must not significantly disturb late TNS
     (Table I: Ours-Early's late columns match the baseline's) *)
  let rel =
    Float.abs (r.Flow.report.Evaluator.tns_late -. before.Evaluator.tns_late)
    /. Float.max 1.0 (Float.abs before.Evaluator.tns_late)
  in
  checkb "late TNS within 5% of baseline" true (rel < 0.05)

let test_trace_structure () =
  let r = Lazy.force ours in
  checkb "trace non-empty" true (List.length r.Flow.trace > 1);
  (match r.Flow.trace with
  | first :: _ -> checkb "starts with the initial snapshot" true (first.Flow.phase = "start")
  | [] -> Alcotest.fail "empty trace");
  checkb "contains css phases" true
    (List.exists (fun p -> p.Flow.phase = "early-css") r.Flow.trace);
  checkb "contains opt phases" true
    (List.exists (fun p -> p.Flow.phase = "early-opt") r.Flow.trace)

let test_metrics_populated () =
  let r = Lazy.force ours in
  checkb "css time measured" true (r.Flow.css_seconds >= 0.0);
  checkb "total >= css + opt" true
    (r.Flow.total_seconds +. 1e-3 >= r.Flow.css_seconds +. r.Flow.opt_seconds);
  checkb "edges counted" true (r.Flow.extracted_edges > 0);
  checkb "iterations counted" true (r.Flow.css_iterations > 0);
  checkb "hpwl increase small" true
    (r.Flow.hpwl_increase_pct >= 0.0 && r.Flow.hpwl_increase_pct < 25.0)

let test_flow_with_resize () =
  let design = Flow.clone (Lazy.force base_design) in
  let config = { Flow.default_config with Flow.use_resize = true } in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  let plain = Lazy.force ours in
  checkb "constraints hold with sizing" true (r.Flow.report.Evaluator.constraint_errors = []);
  checkb "sizing does not lose quality" true
    (r.Flow.report.Evaluator.tns_late >= plain.Flow.report.Evaluator.tns_late -. 1e-6)

let test_flow_with_cts () =
  let design = Flow.clone (Lazy.force base_design) in
  let config = { Flow.default_config with Flow.use_cts = true } in
  let before = Evaluator.evaluate (Flow.clone (Lazy.force base_design)) in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checkb "constraints hold with CTS" true (r.Flow.report.Evaluator.constraint_errors = []);
  checkb "CTS flow still improves late" true
    (r.Flow.report.Evaluator.tns_late > before.Evaluator.tns_late);
  checkb "CTS flow still improves early" true
    (r.Flow.report.Evaluator.tns_early >= before.Evaluator.tns_early)

(* {2 Durable checkpoints, budgets and resume} *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "css-flow-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let test_persist_roundtrip () =
  let dir = fresh_dir () in
  let design = Flow.clone (Lazy.force base_design) in
  let config = { Flow.default_config with Flow.checkpoint_dir = Some dir; Flow.rounds = 1 } in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checkb "run completed" true (r.Flow.stop_reason <> "interrupted");
  match Persist.load ~dir with
  | Error ds -> Alcotest.failf "load failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
  | Ok ps ->
    let run = ps.Persist.ps_progress in
    checks "algo" "Ours" ps.Persist.ps_algo;
    checks "design name" (Design.name design) ps.Persist.ps_design;
    checkb "phases recorded" true (run.Persist.phases_done >= 1);
    checkb "best carried" true (run.best <> None);
    checkb "engines carried" true (ps.Persist.ps_engines <> []);
    checkb "trace carried" true (List.length run.trace_rev > 1);
    checki "anchors sized" (Design.num_cells design) (Array.length ps.Persist.ps_anchors)

let load_code dir =
  match Persist.load ~dir with
  | Ok _ -> "ok"
  | Error (d :: _) -> d.Diag.code
  | Error [] -> "no-diag"

let test_checkpoint_corruption () =
  let dir = fresh_dir () in
  let design = Generator.micro () in
  let config = { Flow.default_config with Flow.checkpoint_dir = Some dir; Flow.rounds = 1 } in
  ignore (Flow.run ~config ~algo:Flow.Ours design);
  let file = Persist.path ~dir in
  let pristine = In_channel.with_open_bin file In_channel.input_all in
  let write s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s) in
  checks "pristine loads" "ok" (load_code dir);
  (* truncation: cut mid-structure *)
  write (String.sub pristine 0 (String.length pristine / 2));
  checks "truncated" "CKPT-004" (load_code dir);
  (* bit rot: flip one byte inside the design-text blob *)
  let flipped = Bytes.of_string pristine in
  let target = String.length pristine - 20 in
  Bytes.set flipped target (if Bytes.get flipped target = 'x' then 'y' else 'x');
  write (Bytes.to_string flipped);
  let code = load_code dir in
  checkb "bitflip rejected (CKPT-003 or CKPT-005)" true (code = "CKPT-003" || code = "CKPT-005");
  (* bad magic *)
  write ("not-a-checkpoint 1\n" ^ pristine);
  checks "bad magic" "CKPT-002" (load_code dir);
  (* trailing garbage after the end marker *)
  write (pristine ^ "junk\n");
  checks "trailing bytes" "CKPT-005" (load_code dir);
  (* missing file *)
  Sys.remove file;
  checks "missing" "CKPT-001" (load_code dir)

let test_budget_ladder () =
  (* a soft-tripped wall budget (soft threshold ~0, limit far away) must
     walk the ladder one rung per phase boundary and end with a
     structured budget stop, never worse than its best checkpoint *)
  let design = Flow.clone (Lazy.force base_design) in
  let before = Evaluator.evaluate (Flow.clone (Lazy.force base_design)) in
  let config =
    {
      Flow.default_config with
      Flow.budget = { Budget.no_limits with Budget.wall_seconds = Some 3600.0; soft_frac = 1e-9 };
    }
  in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checks "stop reason" "budget-wall" r.Flow.stop_reason;
  checkb "ladder walked" true (List.length r.Flow.degradations >= 2);
  checkb "ladder steps named" true
    (List.mem "shrink-ring(wall)" r.Flow.degradations
    && List.mem "early-stop(wall)" r.Flow.degradations);
  checkb "no worse than input" true
    (Float.min r.Flow.report.Evaluator.wns_early r.Flow.report.Evaluator.wns_late
    >= Float.min before.Evaluator.wns_early before.Evaluator.wns_late -. 1e-6)

let test_hard_budget_stops () =
  let design = Flow.clone (Lazy.force base_design) in
  let config =
    {
      Flow.default_config with
      Flow.budget = { Budget.no_limits with Budget.wall_seconds = Some 1e-9 };
    }
  in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checks "stop reason" "budget-wall" r.Flow.stop_reason;
  checkb "no degradation steps on a hard stop" true (r.Flow.degradations = [])

let test_interrupt_persists_and_resumes () =
  let dir = fresh_dir () in
  let design = Flow.clone (Lazy.force base_design) in
  let config =
    {
      Flow.default_config with
      Flow.checkpoint_dir = Some dir;
      Flow.debug_interrupt_after_phase = Some 1;
    }
  in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checks "stop reason" "interrupted" r.Flow.stop_reason;
  match Persist.load ~dir with
  | Error _ -> Alcotest.fail "no checkpoint after interrupt"
  | Ok ps -> (
    checki "exactly one phase persisted" 1 ps.Persist.ps_progress.Persist.phases_done;
    match
      Flow.resume
        ~config:{ Flow.default_config with Flow.checkpoint_dir = Some dir }
        ~library:(Design.library design) ~dir ()
    with
    | Error ds ->
      Alcotest.failf "resume failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok (r2, _) ->
      checkb "resumed flag" true r2.Flow.resumed;
      checkb "resumed run finished" true (r2.Flow.stop_reason <> "interrupted");
      checkb "resumed run accumulated more phases" true
        (r2.Flow.css_iterations >= r.Flow.css_iterations))

let test_resume_from_garbage_dir () =
  let dir = fresh_dir () in
  match Flow.resume ~library:Css_liberty.Library.default ~dir () with
  | Ok _ -> Alcotest.fail "resume from an empty dir must fail"
  | Error (d :: _) -> checks "code" "CKPT-001" d.Diag.code
  | Error [] -> Alcotest.fail "no diagnostics"

module Session = Css_flow.Session
module Obs = Css_util.Obs

(* {2 The checkpoint format}

   [data/micro.ckpt] was written from [Generator.micro] with [Ours] and
   [rounds = 1]. It pins the on-disk format: regenerate it only together
   with a format version bump. *)

let fixture = "data/micro.ckpt"
let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

(* A fresh checkpoint directory holding [text]. *)
let ckpt_dir text =
  let dir = fresh_dir () in
  write_file (Persist.path ~dir) text;
  dir

(* The body below the two header lines (magic + version, hash). *)
let body_of text =
  let first = String.index text '\n' in
  let second = String.index_from text (first + 1) '\n' in
  String.sub text (second + 1) (String.length text - second - 1)

(* [body] under a version header, with its content hash recomputed. *)
let with_header ~version body =
  Printf.sprintf "css-checkpoint %d\nhash %016Lx\n%s" version (Css_util.Fnv.of_string body) body

let index_of s sub =
  let n = String.length sub in
  let rec go i = if String.sub s i n = sub then i else go (i + 1) in
  go 0

let test_golden_checkpoint () =
  let golden = read_file fixture in
  match Persist.load ~dir:(ckpt_dir golden) with
  | Error _ -> Alcotest.fail "the golden checkpoint does not load"
  | Ok st -> (
    let out = fresh_dir () in
    Persist.save ~dir:out st;
    checkb "load then save reproduces the fixture byte for byte" true
      (read_file (Persist.path ~dir:out) = golden);
    checkb "the fixture carries cache entries" true (st.Persist.ps_cache <> []);
    (* version 1 predates the cache section: same body without it *)
    let body = body_of golden in
    let cache_at = index_of body "\ncache " + 1 in
    let v1 = with_header ~version:1 (String.sub body 0 cache_at ^ "end\n") in
    match Persist.load ~dir:(ckpt_dir v1) with
    | Error ds ->
      Alcotest.failf "version 1 rejected: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok st1 ->
      checki "version 1 loads with an empty cache" 0 (List.length st1.Persist.ps_cache);
      checkb "version 1 keeps everything else" true
        ({ st1 with Persist.ps_cache = st.Persist.ps_cache } = st))

(* Empty arrays keep their "key " line: the golden state with every
   array emptied saves, loads back equal and re-saves byte for byte. *)
let test_empty_arrays_round_trip () =
  match Persist.load ~dir:(ckpt_dir (read_file fixture)) with
  | Error _ -> Alcotest.fail "the golden checkpoint does not load"
  | Ok st -> (
    let p = st.Persist.ps_progress in
    let empty =
      {
        st with
        Persist.ps_anchors = [||];
        ps_progress =
          {
            p with
            Persist.best =
              Option.map
                (fun cp ->
                  {
                    cp with
                    Persist.ck_ffs = [||];
                    ck_latencies = [||];
                    ck_lcb_of = [||];
                    ck_positions = [||];
                    ck_masters = [||];
                  })
                p.Persist.best;
          };
        ps_cache =
          List.map
            (fun (c : Css_cache.Macromodel.entry_snap) ->
              { c with cs_members = [||]; cs_nodes = [||]; cs_delays = [||] })
            st.Persist.ps_cache;
      }
    in
    let dir = fresh_dir () in
    Persist.save ~dir empty;
    let text = read_file (Persist.path ~dir) in
    checkb "an empty anchor array is written as 'ax '" true (index_of text "\nax \nay \n" > 0);
    match Persist.load ~dir with
    | Error ds ->
      Alcotest.failf "empty arrays do not load: %s"
        (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok st' ->
      checkb "loads back equal" true (st' = empty);
      let out = fresh_dir () in
      Persist.save ~dir:out st';
      checkb "re-saves byte for byte" true (read_file (Persist.path ~dir:out) = text))

(* Hash-valid checkpoints whose arrays do not fit their own design must
   be refused with CKPT-006 by [reopen], never raise out of it. *)
let test_reopen_shape_check () =
  let golden = read_file fixture in
  let library = Design.library (Generator.micro ()) in
  let reopen text = Session.reopen ~library ~dir:(ckpt_dir text) () in
  (match reopen golden with
  | Ok s -> Session.close s
  | Error _ -> Alcotest.fail "the golden checkpoint does not reopen");
  let edit f =
    let lines = String.split_on_char '\n' (body_of golden) in
    with_header ~version:2 (String.concat "\n" (List.map f lines))
  in
  let starts pfx l =
    String.length l >= String.length pfx && String.sub l 0 (String.length pfx) = pfx
  in
  let rename_slot l =
    let pfx = "engine ours-early " in
    if starts pfx l then "engine ours-middle " ^ String.sub l 18 (String.length l - 18)
    else l
  in
  let cases =
    [
      ( "one extra movement anchor",
        edit (fun l ->
            if starts "anchors " l then "anchors 27"
            else if starts "ax " l || starts "ay " l then l ^ " 0"
            else l) );
      ( "a best-checkpoint FF that is an LCB",
        edit (fun l -> if starts "bf " l then "bf 0 3 4" else l) );
      ("an unknown engine slot", edit rename_slot);
    ]
  in
  List.iter
    (fun (what, text) ->
      match reopen text with
      | Ok s ->
        Session.close s;
        Alcotest.failf "%s: reopened" what
      | Error ds ->
        checkb (what ^ ": CKPT-006") true
          (ds <> [] && List.for_all (fun d -> d.Diag.code = "CKPT-006") ds))
    cases

(* {2 Checkpoint byte identity}

   A durable session formats each cell coordinate through its own
   float-text memo, so a checkpoint is written incrementally. What lands
   on disk must still be exactly what a fresh memo writes: the file
   equals [Persist.save] of its own [Persist.load], and a [Session.save]
   of the live state carries the design text of a fresh [Io.to_string]
   and the live movement anchors bit for bit. *)

module Io = Css_netlist.Io
module Oracles = Css_oracle.Oracles

let check_durable_identity what s ~dir =
  let file = read_file (Persist.path ~dir) in
  (match Persist.load ~dir with
  | Error _ -> Alcotest.failf "%s: the checkpoint does not load" what
  | Ok st ->
    let out = fresh_dir () in
    Persist.save ~dir:out st;
    checkb (what ^ ": checkpoint = save (load checkpoint)") true
      (read_file (Persist.path ~dir:out) = file));
  let live = fresh_dir () in
  Session.save s ~dir:live;
  match Persist.load ~dir:live with
  | Error _ -> Alcotest.failf "%s: Session.save does not load" what
  | Ok st ->
    let d = Session.design s in
    checkb (what ^ ": design text = fresh Io.to_string") true
      (st.Persist.ps_design_text = Io.to_string d);
    let bits (p : Css_geometry.Point.t) =
      (Int64.bits_of_float p.Css_geometry.Point.x, Int64.bits_of_float p.Css_geometry.Point.y)
    in
    checkb (what ^ ": anchors bitwise") true
      (Array.map bits st.Persist.ps_anchors
      = Array.init (Design.num_cells d) (fun c -> bits (Design.cell_orig_pos d c)))

(* the daemon's session settings *)
let daemon_config ~dir =
  {
    Session.default_config with
    Session.rounds = 1;
    jobs = 1;
    final_eval = false;
    rollback = false;
    checkpoint_dir = Some dir;
  }

(* the [flow.checkpoint] snapshots' [bytes] and [floats_formatted] *)
let write_stats obs =
  List.filter_map
    (fun (label, _, fields) ->
      match (label, List.assoc_opt "bytes" fields, List.assoc_opt "floats_formatted" fields) with
      | "flow.checkpoint", Some (Obs.Json.Int b), Some (Obs.Json.Int f) -> Some (b, f)
      | _ -> None)
    (Obs.snapshots obs)

let test_durable_checkpoint_identity () =
  let design = Generator.generate { Profile.tiny with Profile.seed = 4242 } in
  let rng = Random.State.make [| 4242 |] in
  let dir = fresh_dir () in
  let obs = Obs.create () in
  let s =
    Session.open_ ~config:{ (daemon_config ~dir) with Session.obs } ~algo:Session.Ours
      (Flow.clone design)
  in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      check_durable_identity "initial run" s ~dir;
      (match write_stats obs with
      | (_, first) :: (_ :: _ as rest) ->
        checki "the first write formats every cell coordinate" (2 * Design.num_cells design) first;
        checkb "later writes format only what moved" true
          (List.for_all (fun (_, f) -> f < Design.num_cells design) rest);
        checki "bytes = the file's size" (String.length (read_file (Persist.path ~dir)))
          (fst (List.nth rest (List.length rest - 1)))
      | _ -> Alcotest.fail "expected several flow.checkpoint snapshots");
      (* a cell that moves, then returns to its anchor *)
      let ff = (Design.ffs design).(0) in
      let name = Design.cell_name design ff and home = Design.cell_orig_pos design ff in
      let move x y = Session.Move_cell { cell = name; x; y } in
      let batches =
        List.map (fun d -> [ d ]) (Oracles.random_deltas rng design ~n:6)
        @ [
            [ Session.Replace_design (Io.to_string design) ];
            [ Session.Apply_sdc "set_clock_uncertainty -setup 3\n" ];
            [ move (home.Css_geometry.Point.x +. 40.0) home.Css_geometry.Point.y ];
            [ move home.Css_geometry.Point.x home.Css_geometry.Point.y ];
          ]
      in
      List.iteri
        (fun i batch ->
          match Session.apply_delta s batch with
          | Ok _ -> check_durable_identity (Printf.sprintf "request %d" i) s ~dir
          | Error ds ->
            Alcotest.failf "request %d rejected: %s" i
              (String.concat "; " (List.map Diag.to_string ds)))
        batches);
  (* CTS appends cells mid-run, so the memo's slots must grow; rollback
     writes the best checkpoint's positions ([bx]/[by]) through the same
     slots *)
  List.iter
    (fun (what, config) ->
      let dir = fresh_dir () in
      let d = Flow.clone design in
      let n0 = Design.num_cells d in
      let s =
        Session.open_ ~config:{ (config (daemon_config ~dir)) with Session.rounds = 2 }
          ~algo:Session.Ours d
      in
      Fun.protect
        ~finally:(fun () -> Session.close s)
        (fun () ->
          ignore (Session.finish s);
          check_durable_identity what s ~dir;
          let file = read_file (Persist.path ~dir) in
          if what = "cts" then checkb "CTS added cells" true (Design.num_cells d > n0)
          else checkb "best-checkpoint positions written" true (index_of file "\nbx " > 0)))
    [
      ("cts", fun c -> { c with Session.use_cts = true });
      ("rollback", fun c -> { c with Session.rollback = true; final_eval = true });
    ]

(* {2 The macromodel cache inside a warm session} *)

(* A warm session answering a latency-only delta must not re-walk a
   single cone: latency edits never stamp a delay, so every extraction
   lookup has to land in the cache (stamp tier, or hash tier after a
   from-scratch timer rebuild). The extract.*.cone_walks counters count
   real traversals; their delta across the second apply_delta is the
   assertion. *)
let test_warm_delta_zero_walks () =
  let obs = Obs.create () in
  let design = Generator.generate { Profile.tiny with Profile.seed = 5 } in
  let config =
    {
      Flow.default_config with
      Flow.rounds = 1;
      Flow.obs = obs;
      Flow.final_eval = false;
      Flow.rollback = false;
    }
  in
  let session = Session.open_ ~config ~algo:Session.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close session)
    (fun () ->
      ignore (Session.finish session);
      let counters () = Obs.counters obs in
      let get name = Option.value ~default:0 (List.assoc_opt name (counters ())) in
      let walks () =
        List.fold_left
          (fun acc (n, v) ->
            let suffix = ".cone_walks" in
            let ls = String.length suffix and ln = String.length n in
            if ln > ls && String.sub n (ln - ls) ls = suffix then acc + v else acc)
          0 (counters ())
      in
      let ff = (Design.ffs design).(0) in
      let delta lat =
        Session.Set_latency { ff = Design.cell_name design ff; latency = lat }
      in
      (* first delta: converges the schedule around the override and
         warms any cone the initial run did not touch *)
      (match Session.apply_delta session [ delta 3.0 ] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "first delta rejected");
      let walks0 = walks () in
      let hits0 = get "cache.hit" + get "cache.rehash_hit" in
      (* second, identical override: the cones are all cached and no
         delay moved, so re-convergence must replay every interface *)
      (match Session.apply_delta session [ delta 3.0 ] with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "second delta rejected");
      checki "zero cone re-walks on the warm delta" 0 (walks () - walks0);
      checkb "cache hits grew" true (get "cache.hit" + get "cache.rehash_hit" > hits0))

let test_flow_on_micro () =
  let design = Generator.micro () in
  let r = Flow.run ~algo:Flow.Ours design in
  let before = Evaluator.evaluate (Generator.micro ()) in
  checkb "micro early improved" true
    (r.Flow.report.Evaluator.tns_early > before.Evaluator.tns_early);
  checkb "micro late improved" true (r.Flow.report.Evaluator.tns_late > before.Evaluator.tns_late)

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "clone is deep" `Quick test_clone_is_deep;
          Alcotest.test_case "improves early" `Quick test_flow_improves_early;
          Alcotest.test_case "improves late" `Quick test_flow_improves_late;
          Alcotest.test_case "constraints hold" `Quick test_flow_respects_constraints;
          Alcotest.test_case "ours = iccss quality" `Quick test_ours_vs_iccss_same_quality;
          Alcotest.test_case "ours extracts fewer edges" `Quick
            test_ours_extracts_fewer_edges_than_iccss;
          Alcotest.test_case "extracted below full graph" `Quick
            test_extracted_below_full_graph;
          Alcotest.test_case "no zero-increment crawl" `Quick test_no_zero_increment_crawl;
          Alcotest.test_case "ours-early beats fpm" `Quick test_ours_early_beats_fpm;
          Alcotest.test_case "early-only leaves late" `Quick test_ours_early_leaves_late_untouched;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "metrics populated" `Quick test_metrics_populated;
          Alcotest.test_case "resize flag" `Quick test_flow_with_resize;
          Alcotest.test_case "cts flag" `Quick test_flow_with_cts;
          Alcotest.test_case "micro end-to-end" `Quick test_flow_on_micro;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "persist roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "checkpoint corruption codes" `Quick test_checkpoint_corruption;
          Alcotest.test_case "budget degradation ladder" `Quick test_budget_ladder;
          Alcotest.test_case "hard budget stops" `Quick test_hard_budget_stops;
          Alcotest.test_case "interrupt persists and resumes" `Quick
            test_interrupt_persists_and_resumes;
          Alcotest.test_case "resume from garbage dir" `Quick test_resume_from_garbage_dir;
          Alcotest.test_case "golden checkpoint round-trips" `Quick test_golden_checkpoint;
          Alcotest.test_case "empty arrays round-trip" `Quick test_empty_arrays_round_trip;
          Alcotest.test_case "reopen shape check (CKPT-006)" `Quick test_reopen_shape_check;
          Alcotest.test_case "durable checkpoints are byte-identical" `Quick
            test_durable_checkpoint_identity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm delta does zero cone re-walks" `Quick
            test_warm_delta_zero_walks;
        ] );
    ]
