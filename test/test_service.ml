(* CSS-as-a-service tests: the session-first API, the wire protocol,
   the resident daemon, and the three contracts ISSUE 9 pins down —
   ECO identity (warm answers are bitwise from-scratch answers), crash
   safety (a SIGKILLed daemon resumes bitwise), and the warm-path
   speedup over a from-scratch run. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Timer = Css_sta.Timer
module Flow = Css_flow.Flow
module Session = Css_flow.Session
module Persist = Css_flow.Persist
module Protocol = Css_service.Protocol
module Server = Css_service.Server
module Client = Css_service.Client
module Oracles = Css_oracle.Oracles
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Json = Css_util.Json
module Diag = Css_util.Diag
module Obs = Css_util.Obs
module Point = Css_geometry.Point

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* The client side of a daemon test writes to sockets whose peer may
   already be dead; that must surface as EPIPE, not kill the runner. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let tiny_design () = Generator.generate Profile.tiny

(* The service-path configuration: report from the live timer, no
   rollback scoring — what the daemon defaults to for delta serving. *)
let svc_config ?(rounds = 2) () =
  { Flow.default_config with Flow.rounds; final_eval = false; rollback = false }

let exact_latencies design =
  Array.map
    (fun ff -> (Design.cell_name design ff, Io.float_to_string (Design.scheduled_latency design ff)))
    (Design.ffs design)

let check_same_latencies msg a b =
  checki (msg ^ ": ff count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (n1, v1) ->
      let n2, v2 = b.(i) in
      if n1 <> n2 || v1 <> v2 then Alcotest.failf "%s: ff %d: %s=%s vs %s=%s" msg i n1 v1 n2 v2)
    a

let fresh_dir () = Temp_dirs.dir "css-service-test-"

(* {2 Session lifecycle} *)

let test_session_equals_run () =
  let d0 = tiny_design () in
  let cfg = svc_config () in
  let dflow = Flow.clone d0 in
  let r_flow = Flow.run ~config:cfg ~algo:Flow.Ours dflow in
  let dsess = Flow.clone d0 in
  let s = Session.open_ ~config:cfg ~algo:Flow.Ours dsess in
  let phases = ref 0 in
  let rec drain () =
    match Session.step s with
    | `Phase _ ->
      incr phases;
      drain ()
    | `Done -> ()
  in
  drain ();
  let r_sess = Session.finish s in
  Session.close s;
  checkb "phases stepped" true (!phases >= 1);
  checks "stop reason" r_flow.Flow.stop_reason r_sess.Session.stop_reason;
  checki "iterations" r_flow.Flow.css_iterations r_sess.Session.css_iterations;
  check_same_latencies "stepped session vs Flow.run" (exact_latencies dflow) (exact_latencies dsess)

let test_close_idempotent () =
  let s = Session.open_ ~config:(svc_config ~rounds:1 ()) ~algo:Flow.Ours (tiny_design ()) in
  ignore (Session.finish s);
  checkb "open after finish" false (Session.is_closed s);
  Session.close s;
  Session.close s;
  checkb "closed" true (Session.is_closed s);
  (match Session.step s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "step after close must raise");
  match Session.apply_delta s [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "apply_delta after close must raise"

(* A session opened with only [rollback] set scores its checkpoints: the
   daemon turns final evaluation on with it, since Session rolls back
   only to evaluator-scored checkpoints. *)
let test_rollback_alone_scores () =
  let obs = Css_util.Obs.create () in
  let p =
    {
      Protocol.o_session = "r";
      o_design = "";
      o_algo = "Ours";
      o_rounds = None;
      o_final_eval = None;
      o_rollback = Some true;
      o_wall_seconds = None;
      o_rss_mb = None;
    }
  in
  let sc = Server.session_config { Server.default_config with Server.obs } ~p ~dir:None in
  checkb "final evaluation on" true sc.Session.final_eval;
  let s = Session.open_ ~config:sc ~algo:Flow.Ours (tiny_design ()) in
  let rec drain () = match Session.step s with `Phase _ -> drain () | `Done -> () in
  drain ();
  ignore (Session.finish s);
  Session.close s;
  checkb "checkpoints scored" true
    (Css_util.Obs.value (Css_util.Obs.counter obs "flow.checkpoints") > 0)

let has_code code = List.exists (fun d -> String.equal d.Diag.code code)

let test_delta_errors () =
  let s = Session.open_ ~config:(svc_config ~rounds:1 ()) ~algo:Flow.Ours (tiny_design ()) in
  let d = Session.design s in
  let before = Io.to_string d in
  let ff = Design.cell_name d (Design.ffs d).(0) in
  let expect_err name deltas code =
    match Session.apply_delta s deltas with
    | Ok _ -> Alcotest.failf "%s: expected an error" name
    | Error ds -> checkb (name ^ " carries " ^ code) true (has_code code ds)
  in
  expect_err "unknown cell" [ Session.Move_cell { cell = "no-such-cell"; x = 0.0; y = 0.0 } ] "ECO-001";
  expect_err "nan latency" [ Session.Set_latency { ff; latency = Float.nan } ] "ECO-003";
  expect_err "inverted window" [ Session.Set_bounds { ff; lo = 10.0; hi = -10.0 } ] "ECO-004";
  expect_err "rejected batches are atomic"
    [
      Session.Move_cell { cell = ff; x = 1.0; y = 1.0 };
      Session.Move_cell { cell = "no-such-cell"; x = 0.0; y = 0.0 };
    ]
    "ECO-001";
  checkb "design untouched by rejected batches" true
    (String.equal before (Io.to_string (Session.design s)));
  Session.close s

let test_delta_modes () =
  let cfg = svc_config ~rounds:1 () in
  let mode = function `Incremental -> "incremental" | `Rebuild -> "rebuild" in
  let apply s name deltas =
    match Session.apply_delta s deltas with
    | Error ds ->
      Alcotest.failf "%s failed: %s" name
        (String.concat "; " (List.map (fun d -> d.Diag.message) ds))
    | Ok o -> o
  in
  let s = Session.open_ ~config:cfg ~algo:Flow.Ours (tiny_design ()) in
  ignore (Session.finish s);
  let d = Session.design s in
  let name = Design.cell_name d (Design.ffs d).(0) in
  let p = Design.cell_pos d (Design.ffs d).(0) in
  let o = apply s "move" [ Session.Move_cell { cell = name; x = p.Point.x +. 5.0; y = p.Point.y } ] in
  checks "single move is incremental" "incremental" (mode o.Session.d_mode);
  checki "single move touches one cell" 1 o.Session.d_touched;
  let o = apply s "sdc" [ Session.Apply_sdc "set_clock_uncertainty -setup 25\n" ] in
  checks "uncertainty changes the timer config: rebuild" "rebuild" (mode o.Session.d_mode);
  let o = apply s "replace" [ Session.Replace_design (Io.to_string (Session.design s)) ] in
  checks "netlist replacement: rebuild" "rebuild" (mode o.Session.d_mode);
  Session.close s;
  (* the blast-radius fallback: a batch moving more than a quarter of all
     cells rebuilds from scratch, one moving at most a quarter stays
     incremental *)
  let s = Session.open_ ~config:cfg ~algo:Flow.Ours (tiny_design ()) in
  ignore (Session.finish s);
  let d = Session.design s in
  let quarter = Design.num_cells d / 4 in
  let moves k =
    List.init k (fun c ->
        let p = Design.cell_pos d c in
        Session.Move_cell { cell = Design.cell_name d c; x = p.Point.x +. 1.0; y = p.Point.y })
  in
  let o = apply s "quarter" (moves quarter) in
  checki "quarter batch size" quarter o.Session.d_touched;
  checks "a quarter of the cells stays incremental" "incremental" (mode o.Session.d_mode);
  let o = apply s "past quarter" (moves (quarter + 1)) in
  checks "more than a quarter rebuilds" "rebuild" (mode o.Session.d_mode);
  Session.close s

(* {2 Wire protocol} *)

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Protocol.write_frame a "hello";
  Protocol.write_frame a "";
  let big = String.init 50_000 (fun i -> Char.chr (33 + (i mod 90))) in
  Protocol.write_frame a big;
  checkb "first frame" true (Protocol.read_frame b = Some "hello");
  checkb "empty frame" true (Protocol.read_frame b = Some "");
  checkb "large frame" true (Protocol.read_frame b = Some big);
  Unix.close a;
  checkb "clean EOF" true (Protocol.read_frame b = None);
  Unix.close b;
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 10l;
  ignore (Unix.write c hdr 0 4);
  ignore (Unix.write_substring c "abc" 0 3);
  Unix.close c;
  (match Protocol.read_frame d with
  | exception Protocol.Framing _ -> ()
  | _ -> Alcotest.fail "mid-frame EOF must raise Framing");
  Unix.close d;
  let e, f = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Protocol.max_frame + 1));
  ignore (Unix.write e hdr 0 4);
  Unix.close e;
  (match Protocol.read_frame f with
  | exception Protocol.Framing _ -> ()
  | _ -> Alcotest.fail "oversized length must raise Framing");
  Unix.close f

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Ping;
      Protocol.Open
        {
          Protocol.o_session = "s";
          o_design = "design text";
          o_algo = "Ours";
          o_rounds = Some 2;
          o_final_eval = Some false;
          o_rollback = None;
          o_wall_seconds = Some 1.5;
          o_rss_mb = Some 256;
        };
      Protocol.Run "s";
      Protocol.Apply_delta
        ( "s",
          [
            (* 0.30000000000000004: survives only via shortest-round-trip printing *)
            Session.Move_cell { cell = "c"; x = 0.1 +. 0.2; y = -2.25 };
            Session.Set_latency { ff = "f"; latency = 37.125 };
            Session.Set_bounds { ff = "f"; lo = -1.0; hi = 2.0 };
            Session.Apply_sdc "set_latency_bounds f -5 5\n";
            Session.Replace_design "netlist text";
          ] );
      Protocol.Latencies "s";
      Protocol.Snapshot "s";
      Protocol.Close "s";
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      checkb "request survives JSON round trip" true
        (Protocol.request_of_json (Protocol.request_to_json r) = r))
    reqs

(* {2 ECO identity (oracle)} *)

let test_eco_identity_fixed () =
  let design = tiny_design () in
  let rng = Random.State.make [| 7; 11 |] in
  let deltas =
    [
      Oracles.random_deltas rng design ~n:2;
      Oracles.random_deltas rng design ~n:3;
      Oracles.random_deltas rng design ~n:1;
    ]
  in
  match Oracles.check_eco_identity ~deltas design ~algo:Flow.Ours with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" fs)

(* Fixed inputs, so every run covers the same batches: the six of
   0..1000 whose batches move an LCB (a moved LCB once left its
   flip-flops' clock arrivals stale), and three others. *)
let eco_identity_inputs = [ 0; 48; 476; 500; 843; 879; 880; 996; 1000 ]

let test_eco_identity_corpora () =
  List.iter
    (fun seed ->
      let design = tiny_design () in
      let rng = Random.State.make [| seed; 0xEC0 |] in
      let deltas =
        [ Oracles.random_deltas rng design ~n:2; Oracles.random_deltas rng design ~n:2 ]
      in
      match Oracles.check_eco_identity ~deltas design ~algo:Flow.Ours with
      | [] -> ()
      | fs -> Alcotest.failf "input %d:\n%s" seed (String.concat "\n" fs))
    eco_identity_inputs

(* {2 Kill / resume} *)

(* A daemon dying is, at the session layer, an interrupt at a phase
   boundary followed by [Session.reopen] from the checkpoint, under no
   config of the caller's. The resumed session must finish bitwise like
   the uninterrupted run and keep answering deltas bitwise like a
   from-scratch run, whichever of phases 0..5 the kill follows. *)
let test_kill_resume () =
  List.iter
    (fun kill_phase ->
      let fail fmt =
        Printf.ksprintf (fun m -> Alcotest.failf "kill after phase %d: %s" kill_phase m) fmt
      in
      let d0 = tiny_design () in
      let cfg = svc_config ~rounds:2 () in
      let dref = Flow.clone d0 in
      let rref = Flow.run ~config:cfg ~algo:Flow.Ours dref in
      let ref_lat = exact_latencies dref in
      let dir = fresh_dir () in
      let dvic = Flow.clone d0 in
      let vcfg =
        {
          cfg with
          Flow.checkpoint_dir = Some dir;
          Flow.debug_interrupt_after_phase = Some kill_phase;
        }
      in
      let s = Session.open_ ~config:vcfg ~algo:Flow.Ours dvic in
      ignore (Session.finish s);
      Session.close s;
      match Session.reopen ~library:(Design.library d0) ~dir () with
      | Error ds ->
        fail "reopen failed: %s" (String.concat "; " (List.map (fun d -> d.Diag.message) ds))
      | Ok s2 ->
        let r2 = Session.finish s2 in
        let lat2 = exact_latencies (Session.design s2) in
        if r2.Session.stop_reason <> rref.Flow.stop_reason then
          fail "stop diverged: %s vs %s" r2.Session.stop_reason rref.Flow.stop_reason
        else if lat2 <> ref_lat then fail "latencies diverged after resume"
        else if Io.to_string (Session.design s2) <> Io.to_string dref then
          fail "design text diverged after resume"
        else begin
          (* the resumed session keeps serving deltas, still bitwise *)
          let d = Session.design s2 in
          let name = Design.cell_name d (Design.ffs d).(0) in
          let p = Design.cell_pos d (Design.ffs d).(0) in
          let delta = [ Session.Move_cell { cell = name; x = p.Point.x +. 120.0; y = p.Point.y } ] in
          match Session.apply_delta s2 delta with
          | Error _ ->
            Session.close s2;
            fail "apply_delta after resume failed"
          | Ok _ -> (
            let warm = exact_latencies (Session.design s2) in
            Session.close s2;
            match
              Session.stage ~validate:cfg.Flow.validate ~repair:cfg.Flow.repair
                ~timer:cfg.Flow.timer dref delta
            with
            | Error _ -> fail "reference stage failed"
            | Ok sg ->
              ignore
                (Flow.run
                   ~config:{ cfg with Flow.timer = sg.Session.sg_timer }
                   ~algo:Flow.Ours dref);
              if exact_latencies dref <> warm then
                fail "post-resume delta diverged from from-scratch run")
        end)
    [ 0; 1; 2; 3; 4; 5 ]

(* A kill in the middle of an SDC request: the checkpoint records the
   request's timer config from its start record on, so a session
   reopened under the default config finishes the request with that
   config, bitwise like a session that was never interrupted. *)
let test_kill_mid_sdc_request () =
  let d0 = tiny_design () in
  let sdc =
    [
      Session.Apply_sdc
        "set_clock_uncertainty -setup 25\nset_clock_uncertainty -hold 10\nset_timing_derate -early 0.9\n";
    ]
  in
  let apply s =
    match Session.apply_delta s sdc with
    | Ok o -> o.Session.d_result
    | Error _ -> Alcotest.fail "sdc delta rejected"
  in
  let whole = Session.open_ ~config:(svc_config ()) ~algo:Session.Ours (Flow.clone d0) in
  Fun.protect ~finally:(fun () -> Session.close whole) @@ fun () ->
  ignore (Session.finish whole);
  let r_whole = apply whole in
  (* the same session, interrupted after the request's first phase *)
  let dir = fresh_dir () in
  let armed = ref false in
  let interrupt ~round:_ ~phase:_ _ =
    if !armed then begin
      armed := false;
      Persist.request_interrupt ()
    end
  in
  let s =
    Session.open_
      ~config:{ (svc_config ()) with Flow.checkpoint_dir = Some dir; on_phase_end = Some interrupt }
      ~algo:Session.Ours (Flow.clone d0)
  in
  ignore (Session.finish s);
  armed := true;
  let r_cut = Fun.protect ~finally:Persist.clear_interrupt (fun () -> apply s) in
  Session.close s;
  checks "the request was interrupted" "interrupted" r_cut.Session.stop_reason;
  match Session.reopen ~config:Session.default_config ~library:(Design.library d0) ~dir () with
  | Error ds ->
    Alcotest.failf "reopen failed: %s" (String.concat "; " (List.map Diag.to_string ds))
  | Ok s2 ->
    Fun.protect ~finally:(fun () -> Session.close s2) @@ fun () ->
    let r2 = Session.finish s2 in
    checks "stop reason" r_whole.Session.stop_reason r2.Session.stop_reason;
    checkb "sign-off strings" true
      (Protocol.signoff_diffs (Protocol.ok [ ("result", Protocol.summary_of_result r2) ]) r_whole
      = []);
    checkb "design text" true
      (Io.to_string (Session.design s2) = Io.to_string (Session.design whole))

(* {2 The daemon} *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Temp_dirs.track
      (Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "css-serve-%d-%d.sock" (Unix.getpid ()) !n))

let daemon_config ?(state_dir = None) ~socket () =
  { Server.default_config with Server.socket; state_dir; rounds = 2; max_sessions = 5 }

(* With [log], the daemon writes its warnings to that file. *)
let fork_daemon ?log cfg =
  match Unix.fork () with
  | 0 ->
    let close_log =
      match log with
      | None -> ignore
      | Some path ->
        let oc = open_out path in
        let ppf = Format.formatter_of_out_channel oc in
        Logs.set_reporter (Logs.format_reporter ~app:ppf ~dst:ppf ());
        Logs.set_level (Some Logs.Warning);
        fun () ->
          Format.pp_print_flush ppf ();
          close_out oc
    in
    (try Server.serve cfg with _ -> ());
    close_log ();
    Unix._exit 0
  | pid -> pid

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let open_params ?(rounds = 2) ?(algo = "Ours") ?wall ?rss_mb ~session text =
  Protocol.Open
    {
      Protocol.o_session = session;
      o_design = text;
      o_algo = algo;
      o_rounds = Some rounds;
      o_final_eval = None;
      o_rollback = None;
      o_wall_seconds = wall;
      o_rss_mb = rss_mb;
    }

(* Clients written against the cache-era protocol still send
   ["cache_mb"] with [open]: the daemon ignores the field and opens. *)
let test_daemon_legacy_open_field () =
  let socket = fresh_socket () in
  let pid = fork_daemon (daemon_config ~socket ()) in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let c = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let req =
    match Protocol.request_to_json (open_params ~session:"old" (Io.to_string (tiny_design ()))) with
    (* fields of deleted knobs (the cone cache, the extraction pool) are ignored *)
    | Json.Obj fields -> Json.Obj (fields @ [ ("cache_mb", Json.Int 32); ("jobs", Json.Int 4) ])
    | _ -> Alcotest.fail "open request is not an object"
  in
  let resp = Client.expect_ok (Client.rpc_json c req) in
  checkb "session opened" true (Json.member "session" resp = Some (Json.String "old"))

let expect_code c req code =
  let resp = Client.rpc c req in
  checkb (code ^ " request flagged as error") false (Protocol.is_ok resp);
  match Json.member "error" resp with
  | Some (Json.List l) ->
    checkb (code ^ " present in payload") true
      (List.exists
         (fun d ->
           match Json.member "code" d with Some (Json.String s) -> String.equal s code | _ -> false)
         l)
  | _ -> Alcotest.failf "%s: malformed error payload" code

let latencies_of_response resp =
  match Json.member "latencies" resp with
  | Some (Json.List l) ->
    List.map
      (fun j ->
        match (Json.member "ff" j, Json.member "latency" j) with
        | Some (Json.String ff), Some (Json.String v) -> (ff, v)
        | _ -> Alcotest.fail "malformed latencies payload")
      l
    |> Array.of_list
  | _ -> Alcotest.fail "response carries no latencies"

(* The daemon's answer [resp] in [session] against a local result [r]
   on [local]: the sign-off WNS/TNS strings, then every latency (OPT
   zeroes the latencies it realizes, so latencies alone compare zeros). *)
let same_signoff c ~session label resp (r : Session.result) local =
  (match Protocol.signoff_diffs resp r with
  | [] -> ()
  | fields -> Alcotest.failf "%s: %s differ" label (String.concat ", " fields));
  let remote =
    latencies_of_response (Client.expect_ok (Client.rpc c (Protocol.Latencies session)))
  in
  check_same_latencies label (exact_latencies local) remote

let stop_reasons stats =
  match Json.member "sessions" stats with
  | Some (Json.List l) ->
    List.map
      (fun j ->
        match (Json.member "session" j, Json.member "stop_reason" j) with
        | Some (Json.String n), Some (Json.String r) -> (n, r)
        | _ -> Alcotest.fail "malformed sessions payload")
      l
  | _ -> Alcotest.fail "stats carries no sessions"

let test_daemon_roundtrip () =
  let socket = fresh_socket () in
  let pid = fork_daemon (daemon_config ~socket ()) in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let c = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  ignore (Client.expect_ok (Client.rpc c Protocol.Ping));
  let d0 = tiny_design () in
  let text = Io.to_string d0 in
  let local = Flow.clone d0 in
  let cfg = svc_config ~rounds:2 () in
  ignore (Client.expect_ok (Client.rpc c (open_params ~session:"s1" text)));
  expect_code c (open_params ~session:"s1" text) "SRV-001";
  expect_code c (open_params ~session:"s2" ~algo:"Nope" text) "SRV-003";
  expect_code c (Protocol.Run "ghost") "SRV-004";
  expect_code c (Protocol.Snapshot "s1") "SRV-005";
  (* the daemon's run must be bitwise the local Flow.run on the same text *)
  let resp = Client.expect_ok (Client.rpc c (Protocol.Run "s1")) in
  same_signoff c ~session:"s1" "daemon run vs local run" resp
    (Flow.run ~config:cfg ~algo:Flow.Ours local)
    local;
  (* and so must a warm delta answer (ECO identity over the wire) *)
  let name = Design.cell_name local (Design.ffs local).(0) in
  let p = Design.cell_pos local (Design.ffs local).(0) in
  let delta = [ Session.Move_cell { cell = name; x = p.Point.x +. 150.0; y = p.Point.y } ] in
  let resp = Client.expect_ok (Client.rpc c (Protocol.Apply_delta ("s1", delta))) in
  (match Json.member "mode" resp with
  | Some (Json.String "incremental") -> ()
  | _ -> Alcotest.fail "single-cell move should take the incremental path");
  (match Session.stage ~validate:cfg.Flow.validate ~repair:cfg.Flow.repair ~timer:cfg.Flow.timer local delta with
  | Error _ -> Alcotest.fail "local stage failed"
  | Ok sg ->
    same_signoff c ~session:"s1" "eco identity over the wire" resp
      (Flow.run ~config:{ cfg with Flow.timer = sg.Session.sg_timer } ~algo:Flow.Ours local)
      local);
  let stats = Client.expect_ok (Client.rpc c Protocol.Stats) in
  (match Json.member "sessions_open" stats with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "expected one open session");
  ignore (Client.expect_ok (Client.rpc c (Protocol.Close "s1")));
  expect_code c (Protocol.Run "s1") "SRV-004";
  ignore (Client.expect_ok (Client.rpc c Protocol.Shutdown));
  ignore (Unix.waitpid [] pid)

let test_daemon_sigkill_resume () =
  let socket = fresh_socket () in
  let state = fresh_dir () in
  let dcfg = daemon_config ~state_dir:(Some state) ~socket () in
  let pid = ref (fork_daemon dcfg) in
  Fun.protect ~finally:(fun () -> reap !pid) @@ fun () ->
  let d0 = tiny_design () in
  let text = Io.to_string d0 in
  let local = Flow.clone d0 in
  let cfg = svc_config ~rounds:2 () in
  let c1 = Client.wait_for_socket ~timeout:30.0 socket in
  ignore (Client.expect_ok (Client.rpc c1 (open_params ~session:"eco" text)));
  (* SIGKILL before any phase ran: the open-time checkpoint must carry *)
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  Client.close c1;
  pid := fork_daemon dcfg;
  let c2 = Client.wait_for_socket ~timeout:30.0 socket in
  let stats = Client.expect_ok (Client.rpc c2 Protocol.Stats) in
  (match Json.member "sessions_open" stats with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "killed daemon lost its session");
  checks "restored session is marked resumed" "resumed" (List.assoc "eco" (stop_reasons stats));
  same_signoff c2 ~session:"eco" "run after SIGKILL resume"
    (Client.expect_ok (Client.rpc c2 (Protocol.Run "eco")))
    (Flow.run ~config:cfg ~algo:Flow.Ours local)
    local;
  (* SIGKILL after the run: the finished state must also come back bitwise *)
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  Client.close c2;
  pid := fork_daemon dcfg;
  let c3 = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c3) @@ fun () ->
  let remote = latencies_of_response (Client.expect_ok (Client.rpc c3 (Protocol.Latencies "eco"))) in
  check_same_latencies "finished state after SIGKILL" (exact_latencies local) remote;
  (* a clean close deletes the state; a third restart must not resurrect *)
  ignore (Client.expect_ok (Client.rpc c3 (Protocol.Close "eco")));
  ignore (Client.expect_ok (Client.rpc c3 Protocol.Shutdown));
  ignore (Unix.waitpid [] !pid);
  pid := fork_daemon dcfg;
  let c4 = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c4) @@ fun () ->
  let stats = Client.expect_ok (Client.rpc c4 Protocol.Stats) in
  (match Json.member "sessions_open" stats with
  | Some (Json.Int 0) -> ()
  | _ -> Alcotest.fail "closed session resurrected after restart");
  ignore (Client.expect_ok (Client.rpc c4 Protocol.Shutdown));
  ignore (Unix.waitpid [] !pid)

(* A restart keeps the timer settings an SDC delta made: the resumed
   session's sign-off, its next warm answer and the latencies after each
   are bitwise those of a local session that never restarted. (The flow
   realizes every scheduled latency physically, so the [latencies] op
   reads 0 for every flip-flop on both sides; the sign-off slacks are
   where a wrong timer config shows.) *)
let test_daemon_sigkill_keeps_sdc_timer () =
  let socket = fresh_socket () in
  let state = fresh_dir () in
  let dcfg = daemon_config ~state_dir:(Some state) ~socket () in
  let pid = ref (fork_daemon dcfg) in
  Fun.protect ~finally:(fun () -> reap !pid) @@ fun () ->
  let d0 = tiny_design () in
  let text = Io.to_string d0 in
  let sdc =
    [
      Session.Apply_sdc
        "set_clock_uncertainty -setup 25\nset_clock_uncertainty -hold 10\nset_timing_derate -early 0.9\n";
    ]
  in
  let name = Design.cell_name d0 (Design.ffs d0).(0) in
  let p = Design.cell_pos d0 (Design.ffs d0).(0) in
  let move = [ Session.Move_cell { cell = name; x = p.Point.x +. 150.0; y = p.Point.y } ] in
  let local = Session.open_ ~config:(svc_config ()) ~algo:Session.Ours (Flow.clone d0) in
  let apply deltas =
    match Session.apply_delta local deltas with
    | Ok o -> o.Session.d_result
    | Error _ -> Alcotest.fail "local delta rejected"
  in
  ignore (apply sdc);
  checkb "sdc delta took effect" true
    ((Session.config local).Session.timer
    = { Timer.setup_uncertainty = 25.0; hold_uncertainty = 10.0; early_derate = 0.9 });
  let c1 = Client.wait_for_socket ~timeout:30.0 socket in
  ignore (Client.expect_ok (Client.rpc c1 (open_params ~session:"sdc" text)));
  ignore (Client.expect_ok (Client.rpc c1 (Protocol.Apply_delta ("sdc", sdc))));
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  Client.close c1;
  pid := fork_daemon dcfg;
  let c2 = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  same_signoff c2 ~session:"sdc" "run after restart"
    (Client.expect_ok (Client.rpc c2 (Protocol.Run "sdc")))
    (Session.finish local) (Session.design local);
  same_signoff c2 ~session:"sdc" "warm delta after restart"
    (Client.expect_ok (Client.rpc c2 (Protocol.Apply_delta ("sdc", move))))
    (apply move) (Session.design local);
  ignore (Client.expect_ok (Client.rpc c2 Protocol.Shutdown));
  ignore (Unix.waitpid [] !pid)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

(* A session's state directory holds its checkpoint alone, and a
   restart over a state directory that also holds a version-3
   checkpoint beside a leftover session.json and a directory with no
   checkpoint resumes the good session, logs one CKPT-002 warning,
   skips the empty directory and keeps serving. *)
let test_daemon_restart_bad_state () =
  let socket = fresh_socket () in
  let state = fresh_dir () in
  let dcfg = daemon_config ~state_dir:(Some state) ~socket () in
  let pid = ref (fork_daemon dcfg) in
  Fun.protect ~finally:(fun () -> reap !pid) @@ fun () ->
  let text = Io.to_string (tiny_design ()) in
  let rpc c req = Client.expect_ok (Client.rpc c req) in
  let c1 = Client.wait_for_socket ~timeout:30.0 socket in
  ignore (rpc c1 (open_params ~session:"good" text));
  ignore (rpc c1 (Protocol.Run "good"));
  let sdc = [ Session.Apply_sdc "set_clock_uncertainty -setup 25\n" ] in
  ignore (rpc c1 (Protocol.Apply_delta ("good", sdc)));
  ignore (rpc c1 (Protocol.Snapshot "good"));
  let good = Filename.concat state "good" in
  Alcotest.(check (list string))
    "a session's state directory holds its checkpoint alone"
    [ "checkpoint.ckpt"; "checkpoint.journal" ]
    (List.sort compare (Array.to_list (Sys.readdir good)));
  Unix.kill !pid Sys.sigkill;
  ignore (Unix.waitpid [] !pid);
  Client.close c1;
  (* the good base's body under a version-3 header, as an older build
     left it, beside that build's session.json *)
  let old = Filename.concat state "old" in
  Sys.mkdir old 0o755;
  let base = read_file (Persist.path ~dir:good) in
  let nl = String.index base '\n' in
  write_file (Persist.path ~dir:old)
    ("css-checkpoint 3" ^ String.sub base nl (String.length base - nl));
  write_file (Filename.concat old "session.json") {|{"algo":"Ours","final_eval":false}|};
  Sys.mkdir (Filename.concat state "empty") 0o755;
  let log = Filename.concat (fresh_dir ()) "daemon.log" in
  pid := fork_daemon ~log dcfg;
  let c2 = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  Alcotest.(check (list (pair string string)))
    "only the good session resumed" [ ("good", "resumed") ]
    (stop_reasons (rpc c2 Protocol.Stats));
  ignore (rpc c2 (open_params ~session:"new" text));
  ignore (rpc c2 (Protocol.Latencies "good"));
  (match Json.member "sessions_open" (rpc c2 Protocol.Stats) with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "expected the resumed and the new session open");
  ignore (rpc c2 Protocol.Shutdown);
  ignore (Unix.waitpid [] !pid);
  let warnings =
    List.filter
      (fun l -> contains l "WARNING")
      (String.split_on_char '\n' (read_file log))
  in
  match warnings with
  | [ w ] ->
    checkb ("the warning names CKPT-002 and the session: " ^ w) true
      (contains w "CKPT-002" && contains w "session old")
  | ws ->
    Alcotest.failf "expected one warning, got %d:\n%s" (List.length ws) (String.concat "\n" ws)

let test_daemon_concurrent_budgets () =
  let socket = fresh_socket () in
  let pid = fork_daemon (daemon_config ~socket ()) in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let c = Client.wait_for_socket ~timeout:30.0 socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let text = Io.to_string (tiny_design ()) in
  (* four RSS-budgeted sessions plus one that trips its wall budget *)
  for i = 1 to 4 do
    ignore
      (Client.expect_ok (Client.rpc c (open_params ~session:(Printf.sprintf "s%d" i) ~rss_mb:4096 text)))
  done;
  ignore (Client.expect_ok (Client.rpc c (open_params ~session:"broke" ~wall:1e-6 text)));
  expect_code c (open_params ~session:"s6" text) "SRV-002";
  for i = 1 to 4 do
    ignore (Client.expect_ok (Client.rpc c (Protocol.Run (Printf.sprintf "s%d" i))))
  done;
  ignore (Client.expect_ok (Client.rpc c (Protocol.Run "broke")));
  let stats = Client.expect_ok (Client.rpc c Protocol.Stats) in
  (match Json.member "sessions_open" stats with
  | Some (Json.Int 5) -> ()
  | _ -> Alcotest.fail "expected five open sessions");
  let stops = stop_reasons stats in
  for i = 1 to 4 do
    let n = Printf.sprintf "s%d" i in
    let r = List.assoc n stops in
    checkb (n ^ " stayed within its budget: " ^ r) true
      (not (String.length r >= 7 && String.equal (String.sub r 0 7) "budget-"))
  done;
  let rb = List.assoc "broke" stops in
  checkb ("wall-budget stop recorded: " ^ rb) true
    (String.length rb >= 7 && String.equal (String.sub rb 0 7) "budget-");
  (* every session still answers independently *)
  for i = 1 to 4 do
    ignore
      (latencies_of_response
         (Client.expect_ok (Client.rpc c (Protocol.Latencies (Printf.sprintf "s%d" i)))))
  done;
  (match Json.member "request_seconds" stats with
  | Some (Json.Obj histos) -> checkb "per-op latency histograms populated" true (List.mem_assoc "run" histos)
  | _ -> Alcotest.fail "stats carries no request_seconds histograms");
  ignore (Client.expect_ok (Client.rpc c Protocol.Shutdown));
  ignore (Unix.waitpid [] pid)

(* {2 Warm-path speedup} *)

(* The acceptance bar: on a mid-size design, a warm [apply_delta] for a
   single cell move must do >= 5x less timing work than a from-scratch
   [Flow.run] on the post-delta design while answering bitwise the same.
   Work is the timer's node recomputations ([timer.forward_visits +
   timer.backward_visits]), counted rather than timed so machine load
   cannot move the verdict. The profile converges
   clean (no cycles/conflicts/port residue), so the warm request pays one
   incremental cone update where the cold run pays a full timer build. *)
let test_warm_delta_speedup () =
  let profile =
    {
      (Profile.scale 100.0 Profile.tiny) with
      Profile.name = "svc-mid";
      cycle_pairs = 0;
      conflict_pairs = 0;
      port_violation_frac = 0.0;
      port_path_frac = 0.0;
      hold_victim_frac = 0.0;
      num_inputs = 1;
      num_outputs = 1;
      tap_prob = 0.0;
      late_violation_frac = 0.0;
    }
  in
  let d0 = Generator.generate profile in
  let cfg = svc_config ~rounds:3 () in
  let node_visits obs =
    let count name = Obs.value (Obs.counter obs name) in
    count "timer.forward_visits" + count "timer.backward_visits"
  in
  let warm_obs = Obs.create () in
  let warm = Flow.clone d0 in
  let cold = Flow.clone d0 in
  let s = Session.open_ ~config:{ cfg with Flow.obs = warm_obs } ~algo:Flow.Ours warm in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let r = Session.finish s in
  checks "mid-size profile converges clean" "clean" r.Session.stop_reason;
  ignore (Flow.run ~config:cfg ~algo:Flow.Ours cold);
  let name = Design.cell_name warm (Design.ffs warm).(0) in
  let p = Design.cell_pos warm (Design.ffs warm).(0) in
  let delta = [ Session.Move_cell { cell = name; x = p.Point.x +. 2.0; y = p.Point.y } ] in
  let v0 = node_visits warm_obs in
  let o =
    match Session.apply_delta s delta with
    | Ok o -> o
    | Error _ -> Alcotest.fail "warm delta failed"
  in
  let warm_work = node_visits warm_obs - v0 in
  checkb "warm path is incremental" true (o.Session.d_mode = `Incremental);
  match Session.stage ~validate:cfg.Flow.validate ~repair:cfg.Flow.repair ~timer:cfg.Flow.timer cold delta with
  | Error _ -> Alcotest.fail "reference stage failed"
  | Ok sg ->
    let cold_obs = Obs.create () in
    ignore
      (Flow.run
         ~config:{ cfg with Flow.timer = sg.Session.sg_timer; obs = cold_obs }
         ~algo:Flow.Ours cold);
    let cold_work = node_visits cold_obs in
    check_same_latencies "speedup keeps bitwise identity" (exact_latencies cold) (exact_latencies warm);
    let ratio = float_of_int cold_work /. float_of_int (max warm_work 1) in
    checkb
      (Printf.sprintf "warm apply_delta >= 5x less work (warm %d, cold %d node visits, %.1fx)"
         warm_work cold_work ratio)
      true (ratio >= 5.0)

let () =
  Temp_dirs.run "service"
    [
      ( "session",
        [
          Alcotest.test_case "drained session = Flow.run" `Quick test_session_equals_run;
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "delta error codes + atomicity" `Quick test_delta_errors;
          Alcotest.test_case "delta modes" `Quick test_delta_modes;
          Alcotest.test_case "rollback alone scores checkpoints" `Quick
            test_rollback_alone_scores;
          Alcotest.test_case "kill mid sdc request resumes with its timer" `Quick
            test_kill_mid_sdc_request;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "request json round trip" `Quick test_request_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "round trip + error codes" `Quick test_daemon_roundtrip;
          Alcotest.test_case "open with a legacy cache field" `Quick test_daemon_legacy_open_field;
          Alcotest.test_case "sigkill resume" `Quick test_daemon_sigkill_resume;
          Alcotest.test_case "sigkill keeps sdc timer settings" `Quick
            test_daemon_sigkill_keeps_sdc_timer;
          Alcotest.test_case "restart over a bad state dir" `Quick test_daemon_restart_bad_state;
          Alcotest.test_case "concurrent sessions + budgets" `Quick test_daemon_concurrent_budgets;
        ] );
      ( "eco-identity",
        [
          Alcotest.test_case "fixed delta batches bitwise" `Slow test_eco_identity_fixed;
          Alcotest.test_case "random delta corpora keep eco identity" `Quick
            test_eco_identity_corpora;
          Alcotest.test_case "kill mid-session and resume is invisible" `Quick test_kill_resume;
        ] );
      ("speedup", [ Alcotest.test_case "warm delta >= 5x" `Slow test_warm_delta_speedup ]);
    ]
