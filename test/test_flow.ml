(* Integration tests: the four end-to-end flows on generated designs —
   the relationships Table I reports must hold in miniature. *)

module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Persist = Css_flow.Persist
module Io = Css_netlist.Io
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
  let _, s2 = Css_core.Engine.run ~engine:Css_seqgraph.Extract.Iccss t2 ~corner:Css_sta.Timer.Late in
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

(* Ours's final sign-off, bit for bit: extracted edges and the report's
   WNS/TNS/HPWL. A timer or scheduler refactor that claims identical
   results must leave these floats exactly as they are; the sized run
   goes through [Timer.resize_cell]. *)
let test_ours_signoff_pinned () =
  let sb18 = Option.get (Profile.by_name "sb18") in
  List.iter
    (fun (name, p, use_resize, edges, wns_l, tns_l, hpwl) ->
      let config = { Flow.default_config with Flow.use_resize } in
      let r = Flow.run ~config ~algo:Flow.Ours (Generator.generate p) in
      let e = r.Flow.report in
      let bits what want got =
        checkb (Printf.sprintf "%s %s %h" name what got) true
          (Int64.bits_of_float want = Int64.bits_of_float got)
      in
      checki (name ^ " edges") edges r.Flow.extracted_edges;
      bits "wns_early" 0.0 e.Evaluator.wns_early;
      bits "tns_early" 0.0 e.Evaluator.tns_early;
      bits "wns_late" wns_l e.Evaluator.wns_late;
      bits "tns_late" tns_l e.Evaluator.tns_late;
      bits "hpwl" hpwl e.Evaluator.hpwl)
    [
      ( "tiny",
        Profile.tiny,
        false,
        8,
        -0x1.3e0ab68bbeeaep+8,
        -0x1.f31a0d9a232d4p+9,
        0x1.1e4c496f6e78ep+16 );
      ( "sb18x0.12",
        Profile.scale 0.12 sb18,
        false,
        18,
        -0x1.c0af17b66ba6p+7,
        -0x1.04b36a31b31b9p+10,
        0x1.1567ee47a3ed7p+18 );
      ( "sb18x0.12 resize",
        Profile.scale 0.12 sb18,
        true,
        18,
        -0x1.01d2b0c05a434p+7,
        -0x1.2b8952933880cp+8,
        0x1.1567ee47a3ed7p+18 );
    ]

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

let fresh_dir () = Temp_dirs.dir "css-flow-test-"
let load dir = Persist.load ~library:Css_liberty.Library.default ~dir

let anchor_bits d =
  Array.init (Design.num_cells d) (fun c ->
      let p = Design.cell_orig_pos d c in
      (Int64.bits_of_float p.Css_geometry.Point.x, Int64.bits_of_float p.Css_geometry.Point.y))

(* what a loaded checkpoint holds, comparable with [=]: the design text,
   the anchors bit for bit, and the rest of the run state *)
let view (lv : Persist.live) =
  let d = lv.Persist.lv_design in
  ( (Io.to_string d, anchor_bits d),
    (lv.Persist.lv_algo, lv.Persist.lv_settings, lv.Persist.lv_rung),
    lv.Persist.lv_progress,
    lv.Persist.lv_engines )

let test_persist_roundtrip () =
  let dir = fresh_dir () in
  let design = Flow.clone (Lazy.force base_design) in
  let config = { Flow.default_config with Flow.checkpoint_dir = Some dir; Flow.rounds = 1 } in
  let r = Flow.run ~config ~algo:Flow.Ours design in
  checkb "run completed" true (r.Flow.stop_reason <> "interrupted");
  match load dir with
  | Error ds -> Alcotest.failf "load failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
  | Ok lv ->
    let run = lv.Persist.lv_progress in
    checks "algo" "Ours" lv.Persist.lv_algo;
    checks "design name" (Design.name design) (Design.name lv.Persist.lv_design);
    checkb "phases recorded" true (run.Persist.phases_done >= 1);
    checkb "best carried" true (run.best <> None);
    checkb "engines carried" true (lv.Persist.lv_engines <> []);
    checkb "trace carried" true (List.length run.trace_rev > 1);
    checki "design carried" (Design.num_cells design) (Design.num_cells lv.Persist.lv_design)

let load_code dir =
  match load dir with
  | Ok _ -> "ok"
  | Error (d :: _) -> d.Diag.code
  | Error [] -> "no-diag"

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

let has s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let starts pfx l = String.length l >= String.length pfx && String.sub l 0 (String.length pfx) = pfx

(* [body]'s lines through [f], under a version-5 header *)
let edit_lines body f =
  with_header ~version:5 (String.concat "\n" (List.concat_map f (String.split_on_char '\n' body)))

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
  (* cut inside the record that follows the design text, and right
     after the design text *)
  let record = index_of pristine "\nsettings " + 1 in
  write (String.sub pristine 0 (index_of pristine "\nanchors " + 1));
  checks "cut inside the record" "CKPT-004" (load_code dir);
  write (String.sub pristine 0 record);
  checks "cut after the design text" "CKPT-004" (load_code dir);
  (* a base has no earlier best checkpoint to keep: its best section,
     up to the edits line, replaced by [best =] *)
  let body = body_of pristine in
  let best = index_of body "\nbest " and edits = index_of body "\nedits " in
  write
    (with_header ~version:5
       (String.sub body 0 best ^ "\nbest =" ^ String.sub body edits (String.length body - edits)));
  checks "a base's best reads '='" "CKPT-005" (load_code dir);
  (* an anchor of a cell past the design's last *)
  let ncells = Design.num_cells design in
  write
    (edit_lines (body_of pristine) (fun l ->
         if starts "anchors " l then [ "anchors 1"; Printf.sprintf "a %d 0 0" ncells ] else [ l ]));
  checks "anchor out of range" "CKPT-005" (load_code dir);
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
  (* rung 1 is the cheapest extraction, rung 2 the early stop *)
  checkb "ladder steps named" true
    (r.Flow.degradations = [ "cheap-extraction(wall)"; "early-stop(wall)" ]);
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
  match load dir with
  | Error _ -> Alcotest.fail "no checkpoint after interrupt"
  | Ok lv -> (
    checki "exactly one phase persisted" 1 lv.Persist.lv_progress.Persist.phases_done;
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

(* The path the CLI owns: a real SIGTERM under
   [Persist.with_signal_handlers] becomes a cooperative stop at the next
   phase boundary, and the checkpoint it leaves resumes bitwise. *)
let test_signal_persists_and_resumes () =
  let dir = fresh_dir () in
  let reference = Flow.clone (Lazy.force base_design) in
  ignore (Flow.run ~algo:Flow.Ours reference);
  let design = Flow.clone (Lazy.force base_design) in
  let signalled = ref false in
  let kill_self ~round:_ ~phase:_ _ =
    if not !signalled then begin
      signalled := true;
      Unix.kill (Unix.getpid ()) Sys.sigterm
    end
  in
  let config =
    { Flow.default_config with Flow.checkpoint_dir = Some dir; Flow.on_phase_end = Some kill_self }
  in
  let r =
    Fun.protect ~finally:Persist.clear_interrupt (fun () ->
        Persist.with_signal_handlers (fun () -> Flow.run ~config ~algo:Flow.Ours design))
  in
  checks "stop reason" "interrupted" r.Flow.stop_reason;
  match load dir with
  | Error _ -> Alcotest.fail "no checkpoint after SIGTERM"
  | Ok lv -> (
    checki "exactly one phase persisted" 1 lv.Persist.lv_progress.Persist.phases_done;
    match
      Flow.resume
        ~config:{ Flow.default_config with Flow.checkpoint_dir = Some dir }
        ~library:(Design.library design) ~dir ()
    with
    | Error ds ->
      Alcotest.failf "resume failed: %s" (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok (r2, resumed) ->
      checkb "resumed run finished" true (r2.Flow.stop_reason <> "interrupted");
      let bits d =
        Array.map
          (fun ff -> Int64.bits_of_float (Design.scheduled_latency d ff))
          (Design.ffs d)
      in
      checkb "latencies bitwise those of the uninterrupted run" true
        (bits resumed = bits reference))

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
   [rounds = 1]: a [Flow.run] with [checkpoint_dir] set, whose
   checkpoint [Persist.load] read and [Persist.save] wrote as one base
   into a fresh directory. It pins the on-disk format: regenerate it
   only by this recipe, together with a format version bump. *)

let fixture = "data/micro.ckpt"

let test_golden_checkpoint () =
  let golden = read_file fixture in
  match load (ckpt_dir golden) with
  | Error _ -> Alcotest.fail "the golden checkpoint does not load"
  | Ok lv -> (
    let out = fresh_dir () in
    Persist.save ~dir:out lv;
    checkb "load then save reproduces the fixture byte for byte" true
      (read_file (Persist.path ~dir:out) = golden);
    (* older versions are rejected, not migrated: the same body under a
       version-4 header is refused with CKPT-002 and raises nothing *)
    let v4 = ckpt_dir (with_header ~version:4 (body_of golden)) in
    (match load v4 with
    | Ok _ -> Alcotest.fail "a version-4 checkpoint loads"
    | Error ds -> checks "version 4 rejected" "CKPT-002" (List.hd ds).Diag.code);
    match Session.reopen ~library:(Design.library (Generator.micro ())) ~dir:v4 () with
    | Ok s ->
      Session.close s;
      Alcotest.fail "a version-4 checkpoint reopens"
    | Error ds -> checks "reopen rejects version 4" "CKPT-002" (List.hd ds).Diag.code)

(* The settings a reopened session runs under, floats as bits. *)
let settings_bits (c : Session.config) =
  let b = Int64.bits_of_float in
  let t = c.Session.timer and l = c.Session.budget in
  ( c.Session.rounds,
    (b t.Css_sta.Timer.early_derate, b t.setup_uncertainty, b t.hold_uncertainty),
    (c.use_resize, c.use_cts, c.rollback, c.final_eval),
    (Option.map b l.Budget.wall_seconds, l.rss_bytes, b l.soft_frac) )

(* A checkpoint carries the session's settings: a session reopened
   from its base, from its records, and from the records of an SDC
   request that changed its timer config runs under them, whatever
   config its caller passes; the caller keeps the process-local
   fields. CTS adds cells, so a CTS session's writes are bases; the
   resize session's request is read back from journal records. *)
let test_settings_round_trip ~use_cts () =
  let dir = fresh_dir () in
  let original =
    {
      Session.default_config with
      Session.rounds = 2;
      timer =
        {
          Css_sta.Timer.early_derate = 0.1 +. 0.8;
          setup_uncertainty = 25.5;
          hold_uncertainty = 0.1 +. 0.2;
        };
      use_resize = not use_cts;
      use_cts;
      rollback = false;
      final_eval = false;
      budget =
        { Budget.wall_seconds = Some 3600.25; rss_bytes = Some (8 lsl 30); soft_frac = 0.7 };
      checkpoint_dir = Some dir;
    }
  in
  let caller =
    {
      Session.default_config with
      Session.rounds = 5;
      timer = { Css_sta.Timer.default_config with Css_sta.Timer.setup_uncertainty = 1.0 };
      budget = { Budget.no_limits with Budget.wall_seconds = Some 1.0 };
    }
  in
  let reopened what (want : Session.config) =
    match Session.reopen ~config:caller ~library:Css_liberty.Library.default ~dir () with
    | Error ds ->
      Alcotest.failf "%s: reopen failed: %s" what (String.concat "; " (List.map Diag.to_string ds))
    | Ok r ->
      let got = Session.config r in
      Session.close r;
      checkb (what ^ ": the checkpoint's settings") true (settings_bits got = settings_bits want);
      checkb (what ^ ": the caller's checkpoint_dir") true (got.Session.checkpoint_dir = None)
  in
  let s = Session.open_ ~config:original ~algo:Session.Ours (Generator.generate Profile.tiny) in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      reopened "the base" original;
      ignore (Session.finish s);
      reopened "after the run" original;
      match Session.apply_delta s [ Session.Apply_sdc "set_clock_uncertainty -hold 7.125\n" ] with
      | Error _ -> Alcotest.fail "the sdc delta was rejected"
      | Ok _ ->
        checkb "the sdc delta moved the timer config" true
          (settings_bits (Session.config s) <> settings_bits original);
        reopened "after the sdc request" (Session.config s))

(* Empty arrays keep their "key " line: the golden state on a design of
   no cells, with every best-checkpoint array emptied, saves, loads back
   equal and re-saves byte for byte. *)
let test_empty_arrays_round_trip () =
  match load (ckpt_dir (read_file fixture)) with
  | Error _ -> Alcotest.fail "the golden checkpoint does not load"
  | Ok lv -> (
    let p = lv.Persist.lv_progress and d = lv.Persist.lv_design in
    let empty =
      {
        lv with
        Persist.lv_design =
          Design.create ~name:(Design.name d) ~library:(Design.library d) ~die:(Design.die d)
            ~clock_period:(Design.clock_period d) ();
        lv_progress =
          {
            p with
            Persist.best =
              Option.map
                (fun cp ->
                  {
                    cp with
                    Persist.ck_latencies = [||];
                    ck_lcb_of = [||];
                    ck_x = [||];
                    ck_y = [||];
                    ck_masters = [||];
                  })
                p.Persist.best;
          };
      }
    in
    let dir = fresh_dir () in
    Persist.save ~dir empty;
    let text = read_file (Persist.path ~dir) in
    checkb "empty best-checkpoint arrays are written as 'bl '" true
      (has text "\nbl \nbb \nbp 0\nbm \n");
    match load dir with
    | Error ds ->
      Alcotest.failf "empty arrays do not load: %s"
        (match ds with d :: _ -> d.Diag.message | [] -> "?")
    | Ok lv' ->
      checkb "loads back equal" true (view lv' = view empty);
      let out = fresh_dir () in
      Persist.save ~dir:out lv';
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
  let edit f = edit_lines (body_of golden) (fun l -> [ f l ]) in
  let rename_slot l =
    let pfx = "engine ours-early " in
    if starts pfx l then "engine ours-middle " ^ String.sub l 18 (String.length l - 18)
    else l
  in
  (* cell 0's best-checkpoint master (an LCB) replaced by [m] *)
  let first_master m l =
    if starts "bm LCB " l then "bm " ^ m ^ String.sub l 6 (String.length l - 6) else l
  in
  let cases =
    [
      ( "a best checkpoint of more cells than the design",
        edit (fun l ->
            if starts "bn " l then "bn 3 27 0"
            else if starts "bp " l then "bp 1\np 26 0 0"
            else if starts "bm " l then l ^ " DFF"
            else l) );
      ( "a best checkpoint of fewer flip-flops than the design",
        edit (fun l ->
            if starts "bn " l then "bn 2 26 0"
            else if starts "bl " l || starts "bb " l then String.sub l 0 (String.rindex l ' ')
            else l) );
      ( "a best-checkpoint LCB that is a flip-flop",
        edit (fun l -> if starts "bb " l then "bb 2 1 1" else l) );
      ("a best-checkpoint master the library lacks", edit (first_master "NOPE"));
      ("a best-checkpoint master of another interface", edit (first_master "INV_X1"));
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

(* {2 Checkpoint identity}

   A durable session writes its design once, as the base, then appends
   one record per write holding only what changed. Whatever mix of
   bases and records lands on disk, reopening it must give back the live
   session's state exactly: the design text of a fresh [Io.to_string]
   byte for byte and the movement anchors bit for bit. *)

module Oracles = Css_oracle.Oracles

let check_durable_identity what s ~dir =
  (* reopened without a checkpoint directory, so the check writes nothing *)
  match Session.reopen ~library:(Design.library (Session.design s)) ~dir () with
  | Error ds ->
    Alcotest.failf "%s: the checkpoint does not reopen: %s" what
      (String.concat "; " (List.map Diag.to_string ds))
  | Ok r ->
    Fun.protect
      ~finally:(fun () -> Session.close r)
      (fun () ->
        let d = Session.design s and d' = Session.design r in
        checkb (what ^ ": reopened design text = fresh Io.to_string") true
          (Io.to_string d' = Io.to_string d);
        checkb (what ^ ": anchors bitwise") true (anchor_bits d' = anchor_bits d))

(* the daemon's session settings *)
let daemon_config ~dir =
  {
    Session.default_config with
    Session.rounds = 1;
    final_eval = false;
    rollback = false;
    checkpoint_dir = Some dir;
  }

(* the [flow.checkpoint] snapshots' [kind] and [bytes], in write order *)
let writes obs =
  List.filter_map
    (fun (label, _, fields) ->
      match (label, List.assoc_opt "kind" fields, List.assoc_opt "bytes" fields) with
      | "flow.checkpoint", Some (Obs.Json.String k), Some (Obs.Json.Int b) -> Some (k, b)
      | _ -> None)
    (Obs.snapshots obs)

let bases ws = List.length (List.filter (fun (k, _) -> k = "base") ws)

let test_durable_checkpoint_identity () =
  let design = Generator.generate { Profile.tiny with Profile.seed = 4242 } in
  let rng = Random.State.make [| 4242 |] in
  let dir = fresh_dir () in
  let obs = Obs.create () in
  let s =
    Session.open_ ~config:{ (daemon_config ~dir) with Session.obs } ~algo:Session.Ours
      (Flow.clone design)
  in
  (* every write after the base is a record under a tenth of it *)
  let small_records what =
    match writes obs with
    | ("base", base) :: (_ :: _ as rest) ->
      List.iteri
        (fun i (kind, bytes) ->
          checks (Printf.sprintf "%s: write %d is a record" what (i + 1)) "record" kind;
          checkb
            (Printf.sprintf "%s: record %d (%d B) < 10%% of the base (%d B)" what (i + 1) bytes
               base)
            true
            (10 * bytes < base))
        rest
    | _ -> Alcotest.failf "%s: expected a base, then records" what
  in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      check_durable_identity "initial run" s ~dir;
      small_records "initial run";
      (* a cell that moves, then returns to its anchor *)
      let ff = (Design.ffs design).(0) in
      let name = Design.cell_name design ff and home = Design.cell_orig_pos design ff in
      let move x y = Session.Move_cell { cell = name; x; y } in
      let request i batch =
        match Session.apply_delta s batch with
        | Ok _ -> check_durable_identity (Printf.sprintf "request %d" i) s ~dir
        | Error ds ->
          Alcotest.failf "request %d rejected: %s" i
            (String.concat "; " (List.map Diag.to_string ds))
      in
      List.iteri request (List.map (fun d -> [ d ]) (Oracles.random_deltas rng design ~n:6));
      small_records "random requests";
      (* a replaced design is written as a new base; the requests after
         it append records to that base *)
      let before = List.length (writes obs) in
      request 6 [ Session.Replace_design (Io.to_string design) ];
      (match List.filteri (fun i _ -> i >= before) (writes obs) with
      | ("base", _) :: rest ->
        checkb "after the replacement base, records" true
          (List.for_all (fun (k, _) -> k = "record") rest)
      | _ -> Alcotest.fail "the replaced design was not written as a base");
      List.iteri
        (fun i batch -> request (7 + i) batch)
        [
          [ Session.Apply_sdc "set_clock_uncertainty -setup 3\n" ];
          [ move (home.Css_geometry.Point.x +. 40.0) home.Css_geometry.Point.y ];
          [ move home.Css_geometry.Point.x home.Css_geometry.Point.y ];
        ];
      checki "two bases in the stream: the open and the replacement" 2 (bases (writes obs)));
  (* CTS appends cells mid-run and rollback writes the best checkpoint
     whenever it changes: both must compact, and reopen exactly after the
     run and after every request *)
  List.iter
    (fun (what, config) ->
      let dir = fresh_dir () in
      let obs = Obs.create () in
      let d = Flow.clone design in
      let n0 = Design.num_cells d in
      let s =
        Session.open_
          ~config:{ (config (daemon_config ~dir)) with Session.rounds = 2; obs }
          ~algo:Session.Ours d
      in
      Fun.protect
        ~finally:(fun () -> Session.close s)
        (fun () ->
          (* a rollback restores the best checkpoint after the last
             phase's write; like the daemon, save after each answer *)
          let check what =
            Session.save s ~dir;
            check_durable_identity what s ~dir
          in
          ignore (Session.finish s);
          check what;
          if what = "cts" then checkb "CTS added cells" true (Design.num_cells d > n0);
          (* each request's start checkpoint is a new best, so the
             journal grows until it compacts; one more request then
             appends to the new base *)
          let request i =
            match Session.apply_delta s (Oracles.random_deltas rng d ~n:1) with
            | Ok _ -> check (Printf.sprintf "%s request %d" what i)
            | Error _ -> Alcotest.failf "%s request %d rejected" what i
          in
          let rec serve i =
            if bases (writes obs) < 2 && i < 40 then begin
              request i;
              serve (i + 1)
            end
            else request i
          in
          serve 0;
          checkb (what ^ ": compacted at least once") true (bases (writes obs) >= 2)))
    [
      ("cts", fun c -> { c with Session.use_cts = true });
      ("rollback", fun c -> { c with Session.rollback = true; final_eval = true });
    ]

(* {2 Journal faults}

   A daemon-style session on the tiny design that ran and served one
   request leaves a base and a journal of several records. *)

let journaled_session ?(before_request = ignore) () =
  let dir = fresh_dir () in
  let design = Generator.generate { Profile.tiny with Profile.seed = 4242 } in
  let s = Session.open_ ~config:(daemon_config ~dir) ~algo:Session.Ours design in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      ignore (Session.finish s);
      before_request dir;
      let ff = Design.cell_name design (Design.ffs design).(1) in
      match Session.apply_delta s [ Session.Set_latency { ff; latency = 3.5 } ] with
      | Ok _ -> dir
      | Error _ -> Alcotest.fail "the request was rejected")

(* the byte offset of every journal record, after the header line *)
let record_offsets journal =
  let rec go pos acc =
    if pos >= String.length journal then List.rev acc
    else
      let nl = String.index_from journal pos '\n' in
      match String.split_on_char ' ' (String.sub journal pos (nl - pos)) with
      | [ "record"; n; _ ] -> go (nl + 1 + int_of_string n) (pos :: acc)
      | _ -> Alcotest.failf "unexpected journal frame at byte %d" pos
  in
  go (String.index journal '\n' + 1) []

(* what a reopen of [dir] restores: design text, anchors, and the run's
   progress record *)
let reopened dir =
  match (Session.reopen ~library:Css_liberty.Library.default ~dir (), load dir) with
  | Error ds, _ | _, Error ds -> Error (List.hd ds).Diag.code
  | Ok r, Ok lv ->
    let d = Session.design r in
    let anchors = anchor_bits d in
    Session.close r;
    Ok (Io.to_string d, anchors, lv.Persist.lv_progress)

let test_journal_torn_tail () =
  let dir = journaled_session () in
  let jfile = Persist.journal_path ~dir in
  let journal = read_file jfile in
  let offsets = record_offsets journal in
  checkb "several records" true (List.length offsets >= 3);
  let last = List.nth offsets (List.length offsets - 1) in
  write_file jfile (String.sub journal 0 last);
  let previous = reopened dir in
  checkb "the previous record reopens" true (Result.is_ok previous);
  for cut = last + 1 to String.length journal - 1 do
    write_file jfile (String.sub journal 0 cut);
    checkb (Printf.sprintf "cut at byte %d resumes the previous record" cut) true
      (reopened dir = previous)
  done;
  checkb "the whole journal reopens past the previous record" true
    (write_file jfile journal;
     match reopened dir with Ok _ as r -> r <> previous | Error _ -> false);
  (* a writer reopening a torn journal cuts the tail off and appends
     after the last good record *)
  write_file jfile (String.sub journal 0 (last + 7));
  match Session.reopen ~config:(daemon_config ~dir) ~library:Css_liberty.Library.default ~dir () with
  | Error _ -> Alcotest.fail "a torn journal does not reopen for writing"
  | Ok s ->
    Fun.protect
      ~finally:(fun () -> Session.close s)
      (fun () ->
        checki "the torn tail is cut off" last (String.length (read_file jfile));
        ignore (Session.finish s);
        Session.save s ~dir;
        checkb "a record lands after the last good one" true
          (String.length (read_file jfile) > last);
        check_durable_identity "after the torn tail" s ~dir)

let test_journal_bad_record () =
  let dir = journaled_session () in
  let jfile = Persist.journal_path ~dir in
  let journal = read_file jfile in
  let first = List.hd (record_offsets journal) in
  (* a byte inside the first record's body, which more records follow *)
  let at = String.index_from journal first '\n' + 3 in
  let flipped = Bytes.of_string journal in
  Bytes.set flipped at (if Bytes.get flipped at = '7' then '8' else '7');
  write_file jfile (Bytes.to_string flipped);
  checks "load" "CKPT-003" (load_code dir);
  checkb "reopen" true (reopened dir = Error "CKPT-003")

let test_journal_stale () =
  (* the journal as it stood before the request *)
  let stale = ref "" in
  let dir =
    journaled_session ~before_request:(fun dir -> stale := read_file (Persist.journal_path ~dir)) ()
  in
  let jfile = Persist.journal_path ~dir in
  (* compaction: a new base and an empty journal naming it *)
  (match load dir with
  | Error _ -> Alcotest.fail "the journaled checkpoint does not load"
  | Ok lv -> Persist.save ~dir lv);
  let compacted = reopened dir in
  checkb "the compacted checkpoint reopens" true (Result.is_ok compacted);
  (* a crash between the base's rename and the journal's: the old
     journal sits beside the new base and must not be replayed *)
  write_file jfile !stale;
  checkb "the stale journal is ignored" true (reopened dir = compacted);
  let loaded () = Result.map view (load dir) in
  let st = loaded () in
  Sys.remove jfile;
  checkb "a missing journal loads the base alone" true (loaded () = st)

(* {2 The base is a record}

   A base is its design text plus the record a journal write produces:
   a parse of the text anchors every cell at its position, so a base
   lists only the anchors and best-checkpoint positions off those. *)

let test_base_at_open () =
  let dir = fresh_dir () in
  let config = { Session.default_config with Session.checkpoint_dir = Some dir } in
  let s = Session.open_ ~config ~algo:Session.Ours (Generator.generate Profile.tiny) in
  Session.close s;
  let text = read_file (Persist.path ~dir) in
  checkb "no anchor off its position" true (has text "\nanchors 0\n");
  checkb "the start checkpoint at the anchors" true (has text "\nbp 0\n")

(* the best checkpoint with its floats as bits *)
let best_bits (p : Persist.progress) =
  Option.map
    (fun (cp : Persist.checkpoint) ->
      let bits = Array.map Int64.bits_of_float in
      ( { cp with Persist.ck_latencies = [||]; ck_x = [||]; ck_y = [||] },
        (bits cp.Persist.ck_latencies, bits cp.Persist.ck_x, bits cp.Persist.ck_y) ))
    p.Persist.best

(* A mid-run session saved into another directory, which writes a base
   alone, reopens as its own directory's base and records do. *)
let test_base_alone_equals_records () =
  let dir = fresh_dir () and other = fresh_dir () in
  let config =
    { Session.default_config with Session.rounds = 2; checkpoint_dir = Some dir }
  in
  let s = Session.open_ ~config ~algo:Session.Ours (Generator.generate Profile.tiny) in
  Fun.protect
    ~finally:(fun () -> Session.close s)
    (fun () ->
      for _ = 1 to 5 do
        ignore (Session.step s)
      done;
      Session.save s ~dir;
      Session.save s ~dir:other);
  let records = List.length (record_offsets (read_file (Persist.journal_path ~dir))) in
  checkb "its own directory holds records" true (records > 0);
  checki "the other holds a base alone" 0
    (List.length (record_offsets (read_file (Persist.journal_path ~dir:other))));
  let base = read_file (Persist.path ~dir:other) in
  checkb "the base lists moved anchors" false (has base "\nanchors 0\n");
  checkb "the base lists best positions off the anchors" false (has base "\nbp 0\n");
  match (load dir, load other) with
  | Ok a, Ok b ->
    let design_a, run_a, progress_a, engines_a = view a
    and design_b, run_b, progress_b, engines_b = view b in
    checkb "design text and anchors" true (design_a = design_b);
    checkb "algorithm, settings and rung" true (run_a = run_b);
    checkb "progress and trace" true (progress_a = progress_b);
    checkb "the best checkpoint, bit for bit" true
      (progress_a.Persist.best <> None && best_bits progress_a = best_bits progress_b);
    checkb "engine snapshots" true (engines_a = engines_b)
  | _ -> Alcotest.fail "a directory does not load"

(* {2 The change set under every mutator}

   A record carries what the design's change set lists. Random batches
   of every marking mutator, applied straight to a durable session's
   design, each followed by a journal write: every reopen gives back the
   live design text and the anchors bitwise. Spare buffers with an
   unconnected input give [net_add_sink] pins to attach. *)

let replay_design = lazy (Generator.generate { Profile.tiny with Profile.seed = 4242 })

let prop_change_set_replay =
  QCheck.Test.make ~name:"journal replay = live design under every mutator" ~count:20
    (QCheck.int_bound 1_000_000) (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d = Flow.clone (Lazy.force replay_design) in
      let lib = Design.library d in
      let point () =
        Css_geometry.Point.make
          (float (Random.State.int rng 4000) *. 0.37)
          (float (Random.State.int rng 4000) *. 0.37)
      in
      let spares =
        ref
          (List.init 4 (fun i ->
               let c =
                 Design.add_cell d ~name:(Printf.sprintf "spare%d" i) ~master:"BUF_X2" ~pos:(point ())
               in
               Design.cell_pin d c "A"))
      in
      let dir = fresh_dir () in
      let s = Session.open_ ~config:(daemon_config ~dir) ~algo:Session.Ours d in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let cells = Array.init (Design.num_cells d) Fun.id in
      let ffs = Design.ffs d and lcbs = Design.lcbs d in
      let signal_nets =
        List.filter
          (fun n ->
            let c = Design.pin_cell_id d (Design.net_driver_id d n) in
            c >= 0 && not (Design.is_lcb d c))
          (List.init (Design.num_nets d) Fun.id)
        |> Array.of_list
      in
      let latency () =
        match Random.State.int rng 4 with
        | 0 -> 0.0
        | 1 -> -0.0
        | _ -> float (Random.State.int rng 200) *. 0.13
      in
      let mutate () =
        match Random.State.int rng 8 with
        | 0 ->
          let c = pick cells in
          (* half the moves go back to the anchor *)
          Design.move_cell d c
            (if Random.State.bool rng then Design.cell_orig_pos d c else point ())
        | 1 ->
          let c = pick cells in
          let v = Array.of_list (Css_liberty.Library.variants lib (Design.cell_master d c)) in
          Design.swap_master d c (pick v).Css_liberty.Cell.name
        | 2 -> Design.set_scheduled_latency d (pick cells) (latency ())
        | 3 ->
          let lo = float (Random.State.int rng 50) and w = float (Random.State.int rng 50) in
          Design.set_latency_bounds d (pick cells) ~lo ~hi:(lo +. w)
        | 4 -> Design.clear_latency_bounds d (pick cells)
        | 5 -> Design.set_cell_orig_pos d (pick cells) (point ())
        | 6 -> Design.reconnect_ff_to_lcb d ~ff:(pick ffs) ~lcb:(pick lcbs)
        | _ -> (
          match !spares with
          | p :: rest ->
            Design.net_add_sink d (pick signal_nets) p;
            spares := rest
          | [] -> ())
      in
      Fun.protect
        ~finally:(fun () -> Session.close s)
        (fun () ->
          for batch = 1 to 6 do
            for _ = 1 to Random.State.int rng 13 do
              mutate ()
            done;
            Session.save s ~dir;
            check_durable_identity (Printf.sprintf "seed %d batch %d" seed batch) s ~dir
          done);
      true)

(* [cache_bytes] is accepted and ignored: sessions opened with a 64 MiB
   budget and with none schedule bitwise alike, and neither reports
   cache counters. *)
let test_cache_bytes_inert () =
  let run cache_bytes =
    let design = Generator.generate { Profile.tiny with Profile.seed = 5 } in
    let config =
      {
        Flow.default_config with
        Flow.rounds = 1;
        Flow.final_eval = false;
        Flow.rollback = false;
        Flow.cache_bytes;
      }
    in
    let session = Session.open_ ~config ~algo:Session.Ours design in
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () ->
        ignore (Session.finish session);
        checkb "no cache counters" true (Session.cache_stats session = None);
        Array.map
          (fun ff -> Int64.bits_of_float (Design.scheduled_latency design ff))
          (Design.ffs design))
  in
  checkb "bitwise-equal latencies" true (run (64 * 1024 * 1024) = run 0)

(* The stall watchdog sets its verdict like every other watchdog: the
   flow.stop snapshot fires once, carrying the reason. The tiny design
   stops making worst-slack progress within the default rounds. *)
let test_stall_emits_flow_stop () =
  let obs = Css_util.Obs.create () in
  let r =
    Flow.run ~config:{ Flow.default_config with Flow.obs } ~algo:Flow.Ours
      (Generator.generate Profile.tiny)
  in
  checks "stop reason" "stalled" r.Flow.stop_reason;
  let stops =
    List.filter_map
      (fun (label, _, fields) -> if label = "flow.stop" then Some fields else None)
      (Css_util.Obs.snapshots obs)
  in
  match stops with
  | [ fields ] ->
    checkb "reason stalled" true
      (List.assoc_opt "reason" fields = Some (Css_util.Obs.Json.String "stalled"))
  | _ -> Alcotest.failf "expected one flow.stop snapshot, got %d" (List.length stops)

let test_flow_on_micro () =
  let design = Generator.micro () in
  let r = Flow.run ~algo:Flow.Ours design in
  let before = Evaluator.evaluate (Generator.micro ()) in
  checkb "micro early improved" true
    (r.Flow.report.Evaluator.tns_early > before.Evaluator.tns_early);
  checkb "micro late improved" true (r.Flow.report.Evaluator.tns_late > before.Evaluator.tns_late)

let () =
  Temp_dirs.run "flow"
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
          Alcotest.test_case "ours sign-off pinned" `Quick test_ours_signoff_pinned;
          Alcotest.test_case "micro end-to-end" `Quick test_flow_on_micro;
          Alcotest.test_case "cache_bytes is inert" `Quick test_cache_bytes_inert;
          Alcotest.test_case "stall emits one flow.stop" `Quick test_stall_emits_flow_stop;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "persist roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "checkpoint corruption codes" `Quick test_checkpoint_corruption;
          Alcotest.test_case "budget degradation ladder" `Quick test_budget_ladder;
          Alcotest.test_case "hard budget stops" `Quick test_hard_budget_stops;
          Alcotest.test_case "interrupt persists and resumes" `Quick
            test_interrupt_persists_and_resumes;
          Alcotest.test_case "SIGTERM persists and resumes" `Quick
            test_signal_persists_and_resumes;
          Alcotest.test_case "resume from garbage dir" `Quick test_resume_from_garbage_dir;
          Alcotest.test_case "golden checkpoint round-trips" `Quick test_golden_checkpoint;
          Alcotest.test_case "empty arrays round-trip" `Quick test_empty_arrays_round_trip;
          Alcotest.test_case "the base at open lists no anchor" `Quick test_base_at_open;
          Alcotest.test_case "a base alone = a base and records" `Quick
            test_base_alone_equals_records;
          Alcotest.test_case "settings round-trip (resize)" `Quick
            (test_settings_round_trip ~use_cts:false);
          Alcotest.test_case "settings round-trip (cts)" `Quick
            (test_settings_round_trip ~use_cts:true);
          Alcotest.test_case "reopen shape check (CKPT-006)" `Quick test_reopen_shape_check;
          Alcotest.test_case "durable checkpoints are byte-identical" `Quick
            test_durable_checkpoint_identity;
          Alcotest.test_case "journal torn tail resumes the previous record" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "journal bad record (CKPT-003)" `Quick test_journal_bad_record;
          Alcotest.test_case "stale journal is ignored" `Quick test_journal_stale;
          QCheck_alcotest.to_alcotest prop_change_set_replay;
        ] );
    ]
