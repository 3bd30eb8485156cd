(* gen_design — emit a synthetic benchmark design to a file. *)

open Cmdliner

let profile_name =
  let doc = "Benchmark profile (sb1 sb3 sb4 sb5 sb7 sb10 sb16 sb18 or 'tiny')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)

let out =
  let doc = "Output file." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc)

let scale =
  let doc = "Scale factor on entity counts." in
  Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"F" ~doc)

let seed =
  let doc = "Override the profile's random seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let verilog =
  let doc = "Also write a structural Verilog netlist to $(docv)." in
  Arg.(value & opt (some string) None & info [ "verilog" ] ~docv:"FILE" ~doc)

let def =
  let doc = "Also write a DEF placement file to $(docv)." in
  Arg.(value & opt (some string) None & info [ "def" ] ~docv:"FILE" ~doc)

let main profile_name out scale seed verilog def =
  match Css_benchgen.Profile.by_name profile_name with
  | None ->
    Printf.eprintf "gen_design: unknown profile %S\n" profile_name;
    1
  | Some p ->
    let p = if scale = 1.0 then p else Css_benchgen.Profile.scale scale p in
    let p = match seed with Some s -> { p with Css_benchgen.Profile.seed = s } | None -> p in
    let design = Css_benchgen.Generator.generate p in
    Css_netlist.Io.save design out;
    Printf.printf "wrote %s: %d cells, %d nets\n" out
      (Css_netlist.Design.num_cells design)
      (Css_netlist.Design.num_nets design);
    (match verilog with
    | Some path ->
      Css_netlist.Verilog.save_verilog design path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    (match def with
    | Some path ->
      Css_netlist.Verilog.save_def design path;
      Printf.printf "wrote %s\n" path
    | None -> ());
    0

let cmd =
  let info = Cmd.info "gen_design" ~doc:"generate a synthetic benchmark design" in
  Cmd.v info Term.(const main $ profile_name $ out $ scale $ seed $ verilog $ def)

let () = exit (Cmd.eval' cmd)
