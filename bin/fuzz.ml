(* css_fuzz — randomized fault-sequence fuzzing of the whole pipeline.

   Each trial generates a random fault sequence (Css_benchgen.Fault_seq),
   applies it to a pristine corpus (design text + SDC text + library) and
   pushes the corrupted corpus through the production pipeline under the
   graceful-degradation oracle (Css_oracle.Oracles.pipeline). On an
   oracle violation the sequence is shrunk to a minimal reproducer and
   printed in its replayable form; re-run with --replay to confirm a fix.

   Exit status: 0 when every trial degraded gracefully, 1 on a violation
   (after printing the shrunk reproducer), 2 on usage errors. *)

open Cmdliner
module Rng = Css_util.Rng
module Io = Css_netlist.Io
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Fault_seq = Css_benchgen.Fault_seq
module Oracles = Css_oracle.Oracles

let base_sdc =
  "create_clock -period 400\nset_clock_uncertainty -setup 5\nset_latency_bounds ffa 0 150\n"

let base_corpus profile =
  let design =
    match profile with
    | "micro" -> Generator.micro ()
    | name -> (
      match Profile.by_name name with
      | Some p -> Generator.generate p
      | None -> failwith (Printf.sprintf "unknown profile %S" name))
  in
  {
    Fault_seq.design_text = Io.to_string design;
    Fault_seq.sdc_text = base_sdc;
    Fault_seq.library = Css_liberty.Library.default;
    Fault_seq.sabotage_late = false;
  }

let verdict_name = function
  | Oracles.Rejected stage -> "rejected at " ^ stage
  | Oracles.Survived _ -> "survived"

let check corpus0 t =
  let corpus, _ = Fault_seq.apply t corpus0 in
  Oracles.pipeline corpus

let fuzz seed count max_steps profile replay verbose shrink_seconds =
  let corpus0 = base_corpus profile in
  match replay with
  | Some spec -> (
    match Fault_seq.of_string spec with
    | Error e ->
      Printf.eprintf "css_fuzz: bad reproducer: %s\n" e;
      2
    | Ok t -> (
      match check corpus0 t with
      | Ok v ->
        Printf.printf "replay %s: %s\n" (Fault_seq.to_string t) (verdict_name v);
        0
      | Error msg ->
        Printf.printf "replay %s: ORACLE VIOLATION\n  %s\n" (Fault_seq.to_string t) msg;
        1))
  | None -> (
    let rng = Rng.create seed in
    let rejected = ref 0 and survived = ref 0 in
    let failure = ref None in
    (try
       for trial = 0 to count - 1 do
         let t = Fault_seq.gen ~max_len:max_steps rng in
         match check corpus0 t with
         | Ok (Oracles.Rejected stage) ->
           incr rejected;
           if verbose then
             Printf.printf "trial %d: rejected at %s  [%s]\n" trial stage
               (Fault_seq.to_string t)
         | Ok (Oracles.Survived _) ->
           incr survived;
           if verbose then Printf.printf "trial %d: survived  [%s]\n" trial (Fault_seq.to_string t)
         | Error msg ->
           failure := Some (trial, t, msg);
           raise Exit
       done
     with Exit -> ());
    match !failure with
    | None ->
      Printf.printf "css_fuzz: %d trials clean (%d rejected, %d survived), seed %d\n" count
        !rejected !survived seed;
      0
    | Some (trial, t, msg) ->
      Printf.printf "css_fuzz: ORACLE VIOLATION at trial %d (seed %d)\n  %s\n" trial seed msg;
      let fails t = match check corpus0 t with Error _ -> true | Ok _ -> false in
      let shrunk =
        Fault_seq.minimize_timed ?deadline_seconds:shrink_seconds fails t
      in
      let small = shrunk.Fault_seq.minimized in
      let final_msg =
        match check corpus0 small with Error m -> m | Ok _ -> msg
      in
      Printf.printf "shrunk from %d to %d steps%s:\n  %s\n  %s\n"
        (List.length t.Fault_seq.steps)
        (List.length small.Fault_seq.steps)
        (if shrunk.Fault_seq.shrink_timeout then
           " (shrink_timeout: deadline hit, smaller reproducers may exist)"
         else "")
        (Fault_seq.to_string small) final_msg;
      Printf.printf "replay with: css_fuzz --profile %s --replay '%s'\n" profile
        (Fault_seq.to_string small);
      1)

let seed =
  let doc = "Random seed for the trial stream." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let count =
  let doc = "Number of fault sequences to try." in
  Arg.(value & opt int 200 & info [ "n"; "count" ] ~docv:"N" ~doc)

let max_steps =
  let doc = "Maximum faults per sequence." in
  Arg.(value & opt int 6 & info [ "max-steps" ] ~docv:"N" ~doc)

let profile =
  let doc = "Base design: 'micro', 'tiny' or a preset name (sb1..sb18)." in
  Arg.(value & opt string "micro" & info [ "profile" ] ~docv:"NAME" ~doc)

let replay =
  let doc = "Replay one printed reproducer (seed=... steps=...) instead of fuzzing." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"SPEC" ~doc)

let verbose =
  let doc = "Print every trial's verdict." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let shrink_seconds =
  let doc =
    "Wall-clock budget for shrinking a failing sequence (default 120). Each shrink candidate \
     replays the whole pipeline, so slow failures could otherwise dominate the run; on expiry \
     the best reproducer so far is printed with a shrink_timeout note. Use 0 for unbounded."
  in
  Arg.(value & opt float 120.0 & info [ "shrink-seconds" ] ~docv:"S" ~doc)

let cmd =
  let info = Cmd.info "css_fuzz" ~doc:"fuzz the pipeline with shrinking fault sequences" in
  Cmd.v info
    Term.(
      const fuzz $ seed $ count $ max_steps $ profile $ replay $ verbose
      $ map (fun s -> if s <= 0.0 then None else Some s) shrink_seconds)

let () = exit (Cmd.eval' cmd)
