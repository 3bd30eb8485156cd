(* css_stats — diff two perfbench result lines or stats dumps and gate
   on regressions. A thin cmdliner shell over Css_util.Regress: parse
   the two files, print the regression table, and (with --gate) exit
   nonzero when a gated metric regressed or a baseline metric went
   missing.

   Exit codes: 0 = ok (or regressions found but --gate not given),
   1 = --gate and the gate failed, 2 = unreadable/unrecognized input. *)

module Json = Css_util.Json
module Regress = Css_util.Regress
open Cmdliner

let baseline =
  let doc = "Baseline perfbench result line or $(b,--stats-json) dump." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc)

let current =
  let doc = "Current artifact to compare against $(docv,BASELINE); same shape." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc)

let gate_flag =
  let doc =
    "Exit 1 when any gated metric regresses or a baseline metric is missing from the \
     current artifact — the CI perf gate."
  in
  Arg.(value & flag & info [ "gate" ] ~doc)

let inflate_pct =
  let doc =
    "Gate self-test: scale the current artifact's time, size and count metrics up by \
     $(docv) percent before diffing. CI diffs a baseline against its own inflated copy to \
     prove the gate demonstrably fails on a synthetic regression."
  in
  Arg.(value & opt (some float) None & info [ "inflate" ] ~docv:"PCT" ~doc)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))

(* perfbench lines are judged by the metric table in BENCHMARK.json,
   read from the working directory (the repository root, where
   perfbench/run.py runs too) *)
let benchmark_json = "BENCHMARK.json"

let main base_path cur_path gate inflate =
  try
    let baseline = load base_path in
    let current = load cur_path in
    let current =
      match inflate with None -> current | Some pct -> Regress.inflate ~pct current
    in
    let benchmark =
      if Sys.file_exists benchmark_json then Some (load benchmark_json) else None
    in
    let report = Regress.diff ?benchmark ~baseline ~current () in
    print_string (Regress.render report);
    if gate && not (Regress.ok report) then 1 else 0
  with
  | Sys_error m ->
    prerr_endline ("css_stats: " ^ m);
    2
  | Failure m ->
    prerr_endline ("css_stats: " ^ m);
    2

let cmd =
  let doc = "diff two perfbench result lines or stats dumps and gate on perf regressions" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compares two artifacts of the same shape — either two perfbench result lines (the \
         JSON line $(b,python3 perfbench/run.py) ends with) or two $(b,--stats-json) dumps \
         — and prints one row per comparable metric with its delta signed in the worse \
         direction.";
      `P
        "Perfbench lines are judged by BENCHMARK.json in the working directory: each \
         end-to-end metric within its bound, no per-layer count or ratio worse, the run \
         correct with no failed operation. Stats dumps gate span totals and histogram p95s. \
         See docs/OBSERVABILITY.md for the run-diffing walkthrough.";
    ]
  in
  let info = Cmd.info "css_stats" ~doc ~man in
  Cmd.v info Term.(const main $ baseline $ current $ gate_flag $ inflate_pct)

let () = exit (Cmd.eval' cmd)
