(* report_timing — STA report: endpoint slack histograms and worst
   paths, built on Css_eval.Report. *)

module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Design = Css_netlist.Design
module Report = Css_eval.Report
open Cmdliner

let input =
  let doc = "Design file to analyse (or a benchmark name with -b)." in
  Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let benchmark =
  let doc = "Generate and analyse a synthetic benchmark instead of loading a file." in
  Arg.(value & opt (some string) None & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc)

let npaths =
  let doc = "Number of violated endpoints whose worst paths are printed per corner." in
  Arg.(value & opt int 3 & info [ "n"; "paths" ] ~docv:"N" ~doc)

let main input benchmark npaths =
  let design =
    match (input, benchmark) with
    | Some file, None -> Some (Css_netlist.Io.load_exn ~library:Css_liberty.Library.default file)
    | None, Some name ->
      Option.map Css_benchgen.Generator.generate (Css_benchgen.Profile.by_name name)
    | _ -> None
  in
  match design with
  | None ->
    prerr_endline "report_timing: pass exactly one of --input FILE or --benchmark NAME";
    1
  | Some design ->
    let timer = Timer.build design in
    Printf.printf "design %s: %d cells, %d timing-graph nodes, %d arcs\n\n" (Design.name design)
      (Design.num_cells design)
      (Graph.num_nodes (Timer.graph timer))
      (Graph.num_arcs (Timer.graph timer));
    print_string (Report.timing_summary timer);
    if npaths > 0 then begin
      print_string
        (Report.worst_paths_report timer Timer.Late ~endpoints:npaths ~paths_per_endpoint:2);
      print_string
        (Report.worst_paths_report timer Timer.Early ~endpoints:npaths ~paths_per_endpoint:2)
    end;
    0

let cmd =
  let info = Cmd.info "report_timing" ~doc:"static timing report" in
  Cmd.v info Term.(const main $ input $ benchmark $ npaths)

let () = exit (Cmd.eval' cmd)
