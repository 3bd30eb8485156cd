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
module Protocol = Css_service.Protocol
module Server = Css_service.Server
module Client = Css_service.Client
module Oracles = Css_oracle.Oracles
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Json = Css_util.Json
module Diag = Css_util.Diag
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
let svc_config ?(rounds = 2) ?(jobs = 1) () =
  { Flow.default_config with Flow.rounds; jobs; final_eval = false; rollback = false }

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

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "css-service-test-%d-%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

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
      o_jobs = None;
      o_final_eval = None;
      o_rollback = Some true;
      o_wall_seconds = None;
      o_rss_mb = None;
      o_cache_mb = None;
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
  (* a zero fallback fraction sends any multi-cell batch from scratch
     (a single edit keeps the incremental path: frac_limit >= 1) *)
  let s = Session.open_ ~config:{ cfg with Flow.eco_fallback_frac = 0.0 } ~algo:Flow.Ours (tiny_design ()) in
  ignore (Session.finish s);
  let d = Session.design s in
  let move i =
    let name = Design.cell_name d (Design.ffs d).(i) in
    let p = Design.cell_pos d (Design.ffs d).(i) in
    Session.Move_cell { cell = name; x = p.Point.x +. 5.0; y = p.Point.y }
  in
  let o = apply s "frac" [ move 0; move 1 ] in
  checks "eco_fallback_frac 0 forces rebuild" "rebuild" (mode o.Session.d_mode);
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
          o_jobs = None;
          o_final_eval = Some false;
          o_rollback = None;
          o_wall_seconds = Some 1.5;
          o_rss_mb = Some 256;
          o_cache_mb = Some 32;
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

let test_eco_identity_jobs () =
  let design = tiny_design () in
  let rng = Random.State.make [| 7; 11 |] in
  let deltas =
    [
      Oracles.random_deltas rng design ~n:2;
      Oracles.random_deltas rng design ~n:3;
      Oracles.random_deltas rng design ~n:1;
    ]
  in
  match Oracles.check_eco_identity ~jobs:[ 1; 2; 8 ] ~deltas design ~algo:Flow.Ours with
  | [] -> ()
  | fs -> Alcotest.fail (String.concat "\n" fs)

let eco_identity_qcheck =
  QCheck.Test.make ~name:"random delta corpora keep eco identity" ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed ->
      let design = tiny_design () in
      let rng = Random.State.make [| seed; 0xEC0 |] in
      let deltas =
        [ Oracles.random_deltas rng design ~n:2; Oracles.random_deltas rng design ~n:2 ]
      in
      match Oracles.check_eco_identity ~deltas design ~algo:Flow.Ours with
      | [] -> true
      | fs -> QCheck.Test.fail_report (String.concat "\n" fs))

(* {2 Kill / resume} *)

(* A daemon dying is, at the session layer, an interrupt at an arbitrary
   phase boundary followed by [Session.reopen] from the checkpoint. The
   resumed session must finish bitwise like the uninterrupted run and
   keep answering deltas bitwise like a from-scratch run. *)
let kill_resume_qcheck =
  QCheck.Test.make ~name:"kill mid-session and resume is invisible" ~count:4
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5))
    (fun kill_phase ->
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
      match Session.reopen ~config:cfg ~library:(Design.library d0) ~dir () with
      | Error ds ->
        QCheck.Test.fail_reportf "reopen failed: %s"
          (String.concat "; " (List.map (fun d -> d.Diag.message) ds))
      | Ok s2 ->
        let r2 = Session.finish s2 in
        let lat2 = exact_latencies (Session.design s2) in
        if r2.Session.stop_reason <> rref.Flow.stop_reason then
          QCheck.Test.fail_reportf "stop diverged: %s vs %s" r2.Session.stop_reason
            rref.Flow.stop_reason
        else if lat2 <> ref_lat then QCheck.Test.fail_report "latencies diverged after resume"
        else begin
          (* the resumed session keeps serving deltas, still bitwise *)
          let d = Session.design s2 in
          let name = Design.cell_name d (Design.ffs d).(0) in
          let p = Design.cell_pos d (Design.ffs d).(0) in
          let delta = [ Session.Move_cell { cell = name; x = p.Point.x +. 120.0; y = p.Point.y } ] in
          match Session.apply_delta s2 delta with
          | Error _ ->
            Session.close s2;
            QCheck.Test.fail_report "apply_delta after resume failed"
          | Ok _ -> (
            let warm = exact_latencies (Session.design s2) in
            Session.close s2;
            match
              Session.stage ~validate:cfg.Flow.validate ~repair:cfg.Flow.repair
                ~timer:cfg.Flow.timer dref delta
            with
            | Error _ -> QCheck.Test.fail_report "reference stage failed"
            | Ok sg ->
              ignore
                (Flow.run
                   ~config:{ cfg with Flow.timer = sg.Session.sg_timer }
                   ~algo:Flow.Ours dref);
              if exact_latencies dref <> warm then
                QCheck.Test.fail_report "post-resume delta diverged from from-scratch run"
              else true)
        end)

(* {2 The daemon} *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "css-serve-%d-%d.sock" (Unix.getpid ()) !n)

let daemon_config ?(state_dir = None) ~socket () =
  { Server.default_config with Server.socket; state_dir; rounds = 2; jobs = 1; max_sessions = 5 }

let fork_daemon cfg =
  match Unix.fork () with
  | 0 ->
    (try Server.serve cfg with _ -> ());
    Unix._exit 0
  | pid -> pid

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let open_params ?(rounds = 2) ?(algo = "Ours") ?wall ?rss_mb ?cache_mb ~session text =
  Protocol.Open
    {
      Protocol.o_session = session;
      o_design = text;
      o_algo = algo;
      o_rounds = Some rounds;
      o_jobs = Some 1;
      o_final_eval = None;
      o_rollback = None;
      o_wall_seconds = wall;
      o_rss_mb = rss_mb;
      o_cache_mb = cache_mb;
    }

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
  ignore (Client.expect_ok (Client.rpc c (Protocol.Run "s1")));
  ignore (Flow.run ~config:cfg ~algo:Flow.Ours local);
  let remote = latencies_of_response (Client.expect_ok (Client.rpc c (Protocol.Latencies "s1"))) in
  check_same_latencies "daemon run vs local run" (exact_latencies local) remote;
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
    ignore (Flow.run ~config:{ cfg with Flow.timer = sg.Session.sg_timer } ~algo:Flow.Ours local));
  let remote = latencies_of_response (Client.expect_ok (Client.rpc c (Protocol.Latencies "s1"))) in
  check_same_latencies "eco identity over the wire" (exact_latencies local) remote;
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
  ignore (Client.expect_ok (Client.rpc c2 (Protocol.Run "eco")));
  ignore (Flow.run ~config:cfg ~algo:Flow.Ours local);
  let remote = latencies_of_response (Client.expect_ok (Client.rpc c2 (Protocol.Latencies "eco"))) in
  check_same_latencies "run after SIGKILL resume" (exact_latencies local) remote;
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
   single cell move must beat a from-scratch [Flow.run] on the
   post-delta design by >= 5x while answering bitwise the same. The
   profile converges clean (no cycles/conflicts/port residue), so the
   warm request pays one incremental cone update where the cold run
   pays validation plus a full timer build. *)
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
  let warm = Flow.clone d0 in
  let cold = Flow.clone d0 in
  let s = Session.open_ ~config:cfg ~algo:Flow.Ours warm in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let r = Session.finish s in
  checks "mid-size profile converges clean" "clean" r.Session.stop_reason;
  ignore (Flow.run ~config:cfg ~algo:Flow.Ours cold);
  let name = Design.cell_name warm (Design.ffs warm).(0) in
  let p = Design.cell_pos warm (Design.ffs warm).(0) in
  let delta = [ Session.Move_cell { cell = name; x = p.Point.x +. 2.0; y = p.Point.y } ] in
  let t0 = Unix.gettimeofday () in
  let o =
    match Session.apply_delta s delta with
    | Ok o -> o
    | Error _ -> Alcotest.fail "warm delta failed"
  in
  let warm_s = Unix.gettimeofday () -. t0 in
  checkb "warm path is incremental" true (o.Session.d_mode = `Incremental);
  match Session.stage ~validate:cfg.Flow.validate ~repair:cfg.Flow.repair ~timer:cfg.Flow.timer cold delta with
  | Error _ -> Alcotest.fail "reference stage failed"
  | Ok sg ->
    let t1 = Unix.gettimeofday () in
    ignore (Flow.run ~config:{ cfg with Flow.timer = sg.Session.sg_timer } ~algo:Flow.Ours cold);
    let cold_s = Unix.gettimeofday () -. t1 in
    check_same_latencies "speedup keeps bitwise identity" (exact_latencies cold) (exact_latencies warm);
    let ratio = cold_s /. Float.max warm_s 1e-9 in
    checkb
      (Printf.sprintf "warm apply_delta >= 5x from-scratch (warm %.4fs, cold %.4fs, %.1fx)" warm_s
         cold_s ratio)
      true (ratio >= 5.0)

let () =
  Alcotest.run "service"
    [
      ( "session",
        [
          Alcotest.test_case "drained session = Flow.run" `Quick test_session_equals_run;
          Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
          Alcotest.test_case "delta error codes + atomicity" `Quick test_delta_errors;
          Alcotest.test_case "delta modes" `Quick test_delta_modes;
          Alcotest.test_case "rollback alone scores checkpoints" `Quick
            test_rollback_alone_scores;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "framing" `Quick test_framing;
          Alcotest.test_case "request json round trip" `Quick test_request_roundtrip;
        ] );
      (* the daemon group forks; it must run before any jobs>1 test
         (Unix.fork is unavailable once worker domains were spawned) *)
      ( "daemon",
        [
          Alcotest.test_case "round trip + error codes" `Quick test_daemon_roundtrip;
          Alcotest.test_case "sigkill resume" `Quick test_daemon_sigkill_resume;
          Alcotest.test_case "concurrent sessions + budgets" `Quick test_daemon_concurrent_budgets;
        ] );
      ( "eco-identity",
        [
          Alcotest.test_case "jobs 1/2/8 bitwise" `Slow test_eco_identity_jobs;
          QCheck_alcotest.to_alcotest eco_identity_qcheck;
          QCheck_alcotest.to_alcotest kill_resume_qcheck;
        ] );
      ("speedup", [ Alcotest.test_case "warm delta >= 5x" `Slow test_warm_delta_speedup ]);
    ]
