(* css_opt — command-line driver: generate or load a design, run one of
   the four flows, print the evaluation. *)

module Design = Css_netlist.Design
module Evaluator = Css_eval.Evaluator
module Flow = Css_flow.Flow
module Persist = Css_flow.Persist
module Obs = Css_util.Obs
open Cmdliner

let algo_conv =
  let parse = function
    | "ours" -> Ok Flow.Ours
    | "ours-early" -> Ok Flow.Ours_early
    | "iccss+" | "iccss" -> Ok Flow.Iccss_plus
    | "fpm" -> Ok Flow.Fpm
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S (ours|ours-early|iccss+|fpm)" s))
  in
  let print fmt a = Format.pp_print_string fmt (Flow.algo_name a) in
  Arg.conv (parse, print)

let benchmark =
  let doc = "Synthetic benchmark to generate (sb1 sb3 sb4 sb5 sb7 sb10 sb16 sb18, or 'tiny')." in
  Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let input =
  let doc = "Load a design from $(docv) (format written by gen_design / Io.save)." in
  Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let algo =
  let doc = "Algorithm: ours, ours-early, iccss+, fpm." in
  Arg.(value & opt algo_conv Flow.Ours & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let rounds =
  let doc = "CSS+OPT rounds." in
  Arg.(value & opt int 3 & info [ "r"; "rounds" ] ~docv:"N" ~doc)

let scale =
  let doc = "Scale factor applied to the generated benchmark's entity counts." in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"F" ~doc)

let save_out =
  let doc = "Write the optimized design to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_flag =
  let doc =
    "Print the per-iteration optimization trajectory (Fig. 8 style) and stream \
     observability events (span closings, scheduler snapshots) to stderr as they happen."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let stats_json =
  let doc =
    "Write the run's observability dump (counters, phase spans, latency histograms, \
     per-iteration snapshots; see docs/OBSERVABILITY.md) as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let trace_out =
  let doc =
    "Record a streaming execution trace (flow phases, OPT passes, \
     scheduler iterations, checkpoint writes, budget samples, GC major slices) and write \
     it as Chrome trace_event JSON to $(docv) — open with ui.perfetto.dev or \
     chrome://tracing. Events are held in memory until the run ends. Implies stats \
     collection."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let quiet_flag =
  let doc = "Suppress normal progress output; print only errors (and --trace streams)." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let resize_flag =
  let doc = "Also run the gate-sizing passes in each OPT phase." in
  Arg.(value & flag & info [ "resize" ] ~doc)

let cts_flag =
  let doc = "Realize latency targets by inserting new LCBs (CTS guidance)." in
  Arg.(value & flag & info [ "cts" ] ~doc)

let verbose =
  let doc = "Log flow and scheduler progress to stderr (-v info, -vv debug)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let setup_uncertainty =
  let doc = "Clock uncertainty margin applied to setup checks, ps." in
  Arg.(value & opt float 0.0 & info [ "setup-uncertainty" ] ~docv:"PS" ~doc)

let hold_uncertainty =
  let doc = "Clock uncertainty margin applied to hold checks, ps." in
  Arg.(value & opt float 0.0 & info [ "hold-uncertainty" ] ~docv:"PS" ~doc)

let sdc =
  let doc = "Apply an SDC-lite constraint file (see Css_netlist.Sdc)." in
  Arg.(value & opt (some file) None & info [ "sdc" ] ~docv:"FILE" ~doc)

let checkpoint_dir =
  let doc =
    "Persist a crash-safe checkpoint to $(docv) after every completed flow phase, and install \
     SIGINT/SIGTERM handlers that stop at the next phase boundary (the last checkpoint \
     survives). Resume later with --resume."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_flag =
  let doc =
    "Resume an interrupted run from the checkpoint in --checkpoint-dir instead of starting \
     fresh. The checkpoint carries the design, the algorithm and the run's settings (rounds, \
     timer config, --resize, --cts, budgets), so --checkpoint-dir is all a resume needs; \
     setting flags passed beside it are ignored. A truncated or corrupt checkpoint is \
     reported (CKPT-* diagnostics) and the run falls back to a fresh start under the flags \
     given."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let max_seconds =
  let doc =
    "Wall-clock budget in seconds. Near the limit the flow degrades gracefully to a cheaper \
     extraction engine, and at the limit it stops early with the best checkpoint so far (stop \
     reason budget-wall)."
  in
  Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"S" ~doc)

let max_rss_mb =
  let doc =
    "Peak-RSS budget in MiB, same degradation ladder as --max-seconds (stop reason \
     budget-rss)."
  in
  Arg.(value & opt (some int) None & info [ "max-rss-mb" ] ~docv:"MB" ~doc)

(* [`Usage] errors (bad invocation) exit 1; [`Input] errors (a design or
   constraint file that does not parse or validate) exit 2, so scripts
   can tell "you called me wrong" from "your data is bad". *)
let load_design benchmark input scale =
  match (benchmark, input) with
  | Some _, Some _ -> Error (`Usage "pass either --benchmark or --input, not both")
  | None, None -> Error (`Usage "one of --benchmark or --input is required")
  | None, Some file -> (
    match Css_netlist.Io.load ~library:Css_liberty.Library.default file with
    | Ok (design, _) -> Ok design
    | Error ds -> Error (`Diags ds))
  | Some name, None -> (
    let profile =
      if name = "tiny" then Some Css_benchgen.Profile.tiny else Css_benchgen.Profile.by_name name
    in
    match profile with
    | None -> Error (`Usage (Printf.sprintf "unknown benchmark %S" name))
    | Some p ->
      let p = if scale = 1.0 then p else Css_benchgen.Profile.scale scale p in
      Ok (Css_benchgen.Generator.generate p))

let input_error diags =
  (match diags with
  | [] -> prerr_endline "css_opt: invalid input"
  | d :: rest ->
    let more = List.length rest in
    prerr_endline
      ("css_opt: " ^ Css_util.Diag.to_string d
      ^ if more > 0 then Printf.sprintf " (+%d more)" more else ""));
  2

let setup_logs verbose quiet =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (if quiet then Some Logs.Error
     else
       match List.length verbose with
       | 0 -> Some Logs.Warning
       | 1 -> Some Logs.Info
       | _ -> Some Logs.Debug)

let main benchmark input algo rounds scale save_out trace_flag stats_json trace_out quiet
    resize cts verbose su hu sdc checkpoint_dir resume_flag max_seconds max_rss_mb =
  setup_logs verbose quiet;
  let say fmt =
    Printf.ksprintf (fun s -> if not quiet then print_string s) fmt
  in
  let obs =
    if trace_flag then Obs.create_trace stderr
    else if stats_json <> None || trace_out <> None then Obs.create ()
    else Obs.null
  in
  if trace_out <> None then Obs.install_gc_alarm obs;
  let budget =
    {
      Css_util.Budget.no_limits with
      Css_util.Budget.wall_seconds = max_seconds;
      Css_util.Budget.rss_bytes =
        Option.map (fun mb -> mb * 1024 * 1024) max_rss_mb;
    }
  in
  (* A durable run turns SIGINT/SIGTERM into a cooperative stop whose
     last act is a resumable checkpoint, instead of a kill. *)
  let guarded go =
    if checkpoint_dir <> None then Persist.with_signal_handlers go else go ()
  in
  (* everything after a flow run — shared by fresh and resumed paths *)
  let finish (res : Flow.result) design =
    List.iter
      (fun d ->
        if not quiet then prerr_endline ("css_opt: " ^ Css_util.Diag.to_string d))
      res.Flow.validation;
    say "after:  %s\n" (Evaluator.summary res.Flow.report);
    say "%s: CSS %.2fs, OPT %.2fs, total %.2fs, %d edges extracted, HPWL +%.4f%%, stop %s%s%s\n"
      res.Flow.algo res.Flow.css_seconds res.Flow.opt_seconds res.Flow.total_seconds
      res.Flow.extracted_edges res.Flow.hpwl_increase_pct res.Flow.stop_reason
      (if res.Flow.rolled_back then " (rolled back)" else "")
      (if res.Flow.resumed then " (resumed)" else "");
    if res.Flow.degradations <> [] then
      say "budget degradations: %s\n" (String.concat ", " res.Flow.degradations);
    let stats_ok =
      match stats_json with
      | None -> true
      | Some path -> (
        try
          Obs.write_json obs path;
          say "wrote %s\n" path;
          true
        with Sys_error m ->
          prerr_endline ("css_opt: cannot write stats json: " ^ m);
          false)
    in
    let trace_ok =
      match trace_out with
      | None -> true
      | Some path -> (
        try
          Obs.write_chrome_json obs path;
          Obs.remove_gc_alarm obs;
          say "wrote %s (%d events)\n" path (Obs.recorded obs);
          true
        with Sys_error m ->
          prerr_endline ("css_opt: cannot write trace: " ^ m);
          false)
    in
    if trace_flag && not quiet then begin
      print_endline "round phase        iter  wns_early  tns_early   wns_late   tns_late";
      List.iter
        (fun (p : Flow.trace_point) ->
          Printf.printf "%5d %-12s %4d %10.2f %10.2f %10.2f %10.2f\n" p.Flow.round p.Flow.phase
            p.Flow.iter p.Flow.wns_early p.Flow.tns_early p.Flow.wns_late p.Flow.tns_late)
        res.Flow.trace
    end;
    (match save_out with
    | Some path ->
      Css_netlist.Io.save design path;
      say "wrote %s\n" path
    | None -> ());
    if stats_ok && trace_ok then 0 else 1
  in
  (* A fresh run: the SDC's analysis knobs fold into the timer config,
     and its latency windows go onto the design. *)
  let fresh () =
    let constraints =
      match sdc with
      | None -> Ok Css_netlist.Sdc.empty
      | Some path -> (
        match Css_netlist.Sdc.load path with
        | Error ds -> Error ds
        | Ok (c, warns) ->
          List.iter
            (fun d -> if not quiet then prerr_endline ("css_opt: " ^ Css_util.Diag.to_string d))
            warns;
          Ok c)
    in
    match constraints with
    | Error ds -> input_error ds
    | Ok constraints -> (
      let timer_cfg =
        Css_sta.Timer.fold_sdc
          {
            Css_sta.Timer.default_config with
            Css_sta.Timer.setup_uncertainty = su;
            Css_sta.Timer.hold_uncertainty = hu;
          }
          constraints
      in
      let config =
        {
          Flow.default_config with
          rounds;
          Flow.use_resize = resize;
          Flow.use_cts = cts;
          Flow.timer = timer_cfg;
          Flow.obs = obs;
          Flow.budget = budget;
          Flow.checkpoint_dir;
        }
      in
      match load_design benchmark input scale with
      | Error (`Usage m) ->
        prerr_endline ("css_opt: " ^ m);
        1
      | Error (`Diags ds) -> input_error ds
      | Ok design -> (
        try
          (match sdc with
          | Some path ->
            (match Css_netlist.Sdc.apply constraints design with
            | Ok _ -> ()
            | Error ds -> raise (Css_util.Diag.Failed ds));
            say "applied %s (%d latency windows)\n%!" path
              (List.length constraints.Css_netlist.Sdc.latency_bounds)
          | None -> ());
          say "design %s: %d cells, %d FFs, %d LCBs, %d nets\n%!" (Design.name design)
            (Design.num_cells design)
            (Array.length (Design.ffs design))
            (Array.length (Design.lcbs design))
            (Design.num_nets design);
          let before = Evaluator.evaluate ~timer:timer_cfg design in
          say "before: %s\n%!" (Evaluator.summary before);
          (match checkpoint_dir with
          | Some dir -> say "checkpointing to %s\n%!" dir
          | None -> ());
          let res = guarded (fun () -> Flow.run ~config ~algo design) in
          finish res design
        with
        (* malformed or degenerate input: one diagnostic line, never a raw
           backtrace *)
        | Failure m ->
          prerr_endline ("css_opt: " ^ m);
          2
        | Css_util.Diag.Failed ds -> input_error ds
        | Css_netlist.Validate.Invalid ds -> input_error ds))
  in
  match (resume_flag, checkpoint_dir) with
  | true, None ->
    prerr_endline "css_opt: --resume requires --checkpoint-dir";
    1
  | true, Some dir -> (
    (* The checkpoint carries the design and every setting, so the
       setting flags are not read. On an unusable checkpoint (CKPT-*
       diagnostics) fall back to a fresh run so an interrupted pipeline
       invocation can be retried verbatim — input errors in the fresh
       path still exit 2. *)
    let config = { Flow.default_config with Flow.obs; checkpoint_dir } in
    match guarded (fun () -> Flow.resume ~config ~library:Css_liberty.Library.default ~dir ()) with
    | Ok (res, design) ->
      say "resumed from %s\n%!" dir;
      finish res design
    | Error ds ->
      List.iter
        (fun d -> prerr_endline ("css_opt: " ^ Css_util.Diag.to_string d))
        ds;
      prerr_endline "css_opt: checkpoint unusable, starting a fresh run";
      fresh ())
  | false, _ -> fresh ()

let cmd =
  let doc = "clock skew scheduling and slack optimization" in
  let info = Cmd.info "css_opt" ~doc in
  Cmd.v info
    Term.(
      const main $ benchmark $ input $ algo $ rounds $ scale $ save_out $ trace_flag
      $ stats_json $ trace_out $ quiet_flag $ resize_flag $ cts_flag $ verbose $ setup_uncertainty
      $ hold_uncertainty $ sdc $ checkpoint_dir $ resume_flag $ max_seconds
      $ max_rss_mb)

let () = exit (Cmd.eval' cmd)
