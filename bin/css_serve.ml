(* css_serve — the CSS-as-a-service daemon and its client tools.

   serve    run the resident scheduler daemon on a Unix socket
   request  send one raw JSON request (scripting / debugging)
   drive    scripted open -> run -> apply_delta* -> close round-trips
            with an optional local ECO-identity check (what CI runs)

   Exit codes: 0 ok, 1 identity/gate failure, 2 bad input or I/O. *)

module Json = Css_util.Json
module Obs = Css_util.Obs
module Diag = Css_util.Diag
module Io = Css_netlist.Io
module Design = Css_netlist.Design
module Point = Css_geometry.Point
module Profile = Css_benchgen.Profile
module Generator = Css_benchgen.Generator
module Flow = Css_flow.Flow
module Session = Css_flow.Session
module Protocol = Css_service.Protocol
module Server = Css_service.Server
module Client = Css_service.Client
open Cmdliner

let setup_logs verbose quiet =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level
    (if quiet then Some Logs.Error else if verbose then Some Logs.Debug else Some Logs.Info)

(* ------------------------------------------------------------------ *)
(* Shared flags                                                        *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "css_serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug logging.")
let quiet_arg = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Errors only.")

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let state =
    let doc =
      "Session persistence root: each session checkpoints under $(docv)/<name>/ and a \
       restarted daemon resumes it bitwise."
    in
    Arg.(value & opt (some string) None & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"N" ~doc:"Default CSS+OPT rounds.") in
  let max_sessions =
    Arg.(value & opt int 16 & info [ "max-sessions" ] ~docv:"N" ~doc:"Concurrent session limit.")
  in
  let max_seconds =
    let doc = "Default per-session wall budget, seconds." in
    Arg.(value & opt (some float) None & info [ "max-seconds" ] ~docv:"S" ~doc)
  in
  let max_rss_mb =
    let doc = "Default per-session RSS budget, MiB." in
    Arg.(value & opt (some int) None & info [ "max-rss-mb" ] ~docv:"MB" ~doc)
  in
  let final_eval =
    Arg.(value & flag & info [ "final-eval" ] ~doc:"Score every request with the independent evaluator (slow; default reports from the live timer).")
  in
  let rollback =
    Arg.(value & flag & info [ "rollback" ] ~doc:"Enable checkpoint/rollback scoring per request (implies --final-eval).")
  in
  let stats_json =
    let doc = "Write the daemon's Obs dump (service.* counters, per-op histograms) here at exit." in
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)
  in
  let trace_out =
    let doc = "Write a Chrome/Perfetto trace of the daemon here at exit." in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let main socket state rounds max_sessions max_seconds max_rss_mb final_eval rollback
      stats_json trace_out verbose quiet =
    setup_logs verbose quiet;
    let obs = if stats_json <> None || trace_out <> None then Obs.create () else Obs.null in
    let cfg =
      {
        Server.default_config with
        Server.socket;
        state_dir = state;
        rounds;
        max_sessions;
        wall_seconds = max_seconds;
        rss_mb = max_rss_mb;
        final_eval;
        rollback;
        obs;
      }
    in
    (try Server.serve cfg with
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "css_serve: %s(%s): %s\n" fn arg (Unix.error_message e);
      exit 2);
    Option.iter
      (fun path ->
        try Obs.write_json obs path
        with Sys_error m -> Printf.eprintf "css_serve: cannot write stats json: %s\n" m)
      stats_json;
    Option.iter
      (fun path ->
        try Obs.write_chrome_json obs path
        with Sys_error m -> Printf.eprintf "css_serve: cannot write trace: %s\n" m)
      trace_out
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the resident scheduler daemon.")
    Term.(
      const main $ socket_arg $ state $ rounds $ max_sessions $ max_seconds $ max_rss_mb
      $ final_eval $ rollback $ stats_json $ trace_out $ verbose_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* request                                                             *)

let request_cmd =
  let body =
    let doc = "Request JSON (\"-\" reads stdin)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JSON" ~doc)
  in
  let main socket body =
    let body = if body = "-" then In_channel.input_all stdin else body in
    match Json.of_string body with
    | exception Failure m ->
      Printf.eprintf "css_serve: bad JSON: %s\n" m;
      exit 2
    | j -> (
      match Client.connect socket with
      | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "css_serve: cannot connect %s: %s\n" socket (Unix.error_message e);
        exit 2
      | c ->
        let resp = Client.rpc_json c j in
        Client.close c;
        print_endline (Json.to_string resp);
        if not (Protocol.is_ok resp) then exit 1)
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Send one raw JSON request to a running daemon.")
    Term.(const main $ socket_arg $ body)

(* ------------------------------------------------------------------ *)
(* drive                                                               *)

(* The reference replays the session's life locally: Flow.run on the
   same generated design, Session.stage for each delta, Flow.run again.
   Both sides start from the same design text and the same anchors, so
   the sign-off WNS/TNS strings of every run and apply_delta answer and
   the latencies must match bitwise (the ECO-identity contract). *)

let exact_latencies design =
  Array.map
    (fun ff -> (Design.cell_name design ff, Io.float_to_string (Design.scheduled_latency design ff)))
    (Design.ffs design)

let latencies_of_response resp =
  match Json.member "latencies" resp with
  | Some (Json.List l) ->
    List.map
      (fun j ->
        match (Json.member "ff" j, Json.member "latency" j) with
        | Some (Json.String ff), Some (Json.String v) -> (ff, v)
        | _ -> failwith "css_serve: malformed latencies payload")
      l
    |> Array.of_list
  | _ -> failwith "css_serve: response carries no latencies"

let drive_cmd =
  let profile =
    let doc = "Generator profile (tiny, sb1, sb1-paper, ...)." in
    Arg.(value & opt string "tiny" & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let scale =
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"F" ~doc:"Scale the profile's entity counts.")
  in
  let session =
    Arg.(value & opt string "drive" & info [ "session" ] ~docv:"NAME" ~doc:"Session name.")
  in
  let deltas =
    Arg.(value & opt int 3 & info [ "deltas" ] ~docv:"N" ~doc:"apply_delta round-trips to run.")
  in
  let rounds = Arg.(value & opt int 2 & info [ "rounds" ] ~docv:"N" ~doc:"Rounds for this session.") in
  let no_identity =
    Arg.(value & flag & info [ "no-identity" ] ~doc:"Skip the local ECO-identity replay (faster).")
  in
  let stats_out =
    let doc =
      "Fetch the daemon's stats op and write an Obs-dump-shaped JSON (counters + per-op \
       request-latency histograms) here — feed it to css_stats --gate."
    in
    Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Send shutdown after closing the session.")
  in
  let main socket profile scale session ndeltas rounds no_identity stats_out shutdown verbose
      quiet =
    setup_logs verbose quiet;
    let say fmt = Printf.ksprintf (fun s -> if not quiet then print_string s) fmt in
    let prof =
      match Profile.by_name profile with
      | Some p -> if scale <> 1.0 then Profile.scale scale p else p
      | None ->
        Printf.eprintf "css_serve: unknown profile %S\n" profile;
        exit 2
    in
    let local = Generator.generate prof in
    let text = Io.to_string local in
    let cfg =
      {
        Flow.default_config with
        Flow.rounds;
        final_eval = false;
        rollback = false;
      }
    in
    let c =
      try Client.wait_for_socket socket
      with Failure m ->
        prerr_endline ("css_serve: " ^ m);
        exit 2
    in
    let rpc req = Client.expect_ok (Client.rpc c req) in
    ignore (rpc Protocol.Ping);
    ignore
      (rpc
         (Protocol.Open
            {
              Protocol.o_session = session;
              o_design = text;
              o_algo = "Ours";
              o_rounds = Some rounds;
              o_final_eval = Some false;
              o_rollback = Some false;
              o_wall_seconds = None;
              o_rss_mb = None;
            }));
    let mismatches = ref 0 in
    (* OPT zeroes the latencies it realizes, so the sign-off strings are
       compared as well *)
    let check_signoff what resp r =
      match Protocol.signoff_diffs resp r with
      | [] -> ()
      | fields ->
        incr mismatches;
        Printf.eprintf "css_serve: %s: %s differ from local Flow.run\n" what
          (String.concat ", " fields)
    in
    let run_resp = rpc (Protocol.Run session) in
    say "run: %s\n" (Json.to_string (Option.get (Json.member "result" run_resp)));
    if not no_identity then
      check_signoff "run" run_resp (Flow.run ~config:cfg ~algo:Flow.Ours local);
    let ffs = Design.ffs local in
    if Array.length ffs = 0 then begin
      prerr_endline "css_serve: profile generated no flip-flops";
      exit 2
    end;
    let service_s = ref 0.0 and local_s = ref 0.0 in
    for k = 0 to ndeltas - 1 do
      let ff = ffs.(k mod Array.length ffs) in
      let pos = Design.cell_pos local ff in
      let delta =
        Session.Move_cell
          {
            cell = Design.cell_name local ff;
            x = pos.Point.x +. 190.0;
            y = pos.Point.y;
          }
      in
      let resp = rpc (Protocol.Apply_delta (session, [ delta ])) in
      (match Json.member "seconds" resp with
      | Some s -> service_s := !service_s +. Json.to_float s
      | None -> ());
      say "apply_delta %d: mode %s\n" k
        (match Json.member "mode" resp with Some (Json.String m) -> m | _ -> "?");
      if not no_identity then begin
        (* replay locally: same delta, from-scratch run on the post-delta design *)
        (match Session.stage ~validate:false ~timer:cfg.Flow.timer local [ delta ] with
        | Ok _ -> ()
        | Error ds ->
          prerr_endline
            ("css_serve: local stage failed: " ^ String.concat "; " (List.map Diag.to_string ds));
          exit 2);
        let t0 = Css_util.Wall_clock.now () in
        let r = Flow.run ~config:cfg ~algo:Flow.Ours local in
        local_s := !local_s +. (Css_util.Wall_clock.now () -. t0);
        check_signoff (Printf.sprintf "delta %d" k) resp r;
        let remote = latencies_of_response (rpc (Protocol.Latencies session)) in
        if remote <> exact_latencies local then begin
          incr mismatches;
          Printf.eprintf "css_serve: delta %d: latencies differ from local Flow.run\n" k
        end
      end
    done;
    Option.iter
      (fun path ->
        let stats = rpc Protocol.Stats in
        let counters =
          Json.Obj
            [
              ( "service.requests",
                Option.value ~default:(Json.Int 0) (Json.member "requests" stats) );
              ("service.errors", Option.value ~default:(Json.Int 0) (Json.member "errors" stats));
            ]
        in
        let histograms =
          match Json.member "request_seconds" stats with
          | Some (Json.Obj ops) ->
            Json.Obj (List.map (fun (op, h) -> ("service.seconds." ^ op, h)) ops)
          | _ -> Json.Obj []
        in
        Json.write_file path (fun oc ->
            output_string oc
              (Json.to_string (Json.Obj [ ("counters", counters); ("histograms", histograms) ])));
        say "wrote %s\n" path)
      stats_out;
    ignore (rpc (Protocol.Close session));
    if shutdown then ignore (rpc Protocol.Shutdown);
    Client.close c;
    if not no_identity then begin
      say "identity: %s over %d deltas\n"
        (if !mismatches = 0 then "bitwise-identical" else "MISMATCH")
        ndeltas;
      if !local_s > 0.0 && !service_s > 0.0 then
        say "warm apply_delta %.4fs vs from-scratch %.4fs (%.1fx)\n" !service_s !local_s
          (!local_s /. !service_s)
    end;
    if !mismatches > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "drive"
       ~doc:"Drive open -> run -> apply_delta* -> close against a daemon, checking ECO identity.")
    Term.(
      const main $ socket_arg $ profile $ scale $ session $ deltas $ rounds $ no_identity
      $ stats_out $ shutdown $ verbose_arg $ quiet_arg)

let () =
  let info = Cmd.info "css_serve" ~doc:"Clock skew scheduling as a resident service." in
  exit (Cmd.eval (Cmd.group info [ serve_cmd; request_cmd; drive_cmd ]))
