module Json = Css_util.Json
module Obs = Css_util.Obs
module Budget = Css_util.Budget
module Diag = Css_util.Diag
module Histo = Css_util.Histo
module Wall_clock = Css_util.Wall_clock
module Io = Css_netlist.Io
module Validate = Css_netlist.Validate
module Session = Css_flow.Session
module Persist = Css_flow.Persist

let log_src = Logs.Src.create "css.service" ~doc:"resident scheduler daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket : string;
  state_dir : string option;
  library : Css_liberty.Library.t;
  rounds : int;
  final_eval : bool;
  rollback : bool;
  wall_seconds : float option;
  rss_mb : int option;
  max_sessions : int;
  obs : Obs.t;
}

let default_config =
  {
    socket = "css_serve.sock";
    state_dir = None;
    library = Css_liberty.Library.default;
    rounds = 3;
    (* service defaults favor cheap per-request answers; a client doing
       final sign-off opens its session with final_eval/rollback true *)
    final_eval = false;
    rollback = false;
    wall_seconds = None;
    rss_mb = None;
    max_sessions = 16;
    obs = Obs.null;
  }

type sess = {
  sx_name : string;
  sx_session : Session.t;
  sx_dir : string option;
  mutable sx_last_stop : string;
  mutable sx_requests : int;
}

type t = {
  cfg : config;
  sessions : (string, sess) Hashtbl.t;
  histos : (string, Histo.t) Hashtbl.t; (* per-op request latency, seconds *)
  mutable stopping : bool;
  mutable clients : Unix.file_descr list;
  listen_fd : Unix.file_descr;
  in_request : bool Atomic.t; (* signal handler: safe to flush when false *)
  (* the daemon's own tallies — the stats op must answer even when
     [cfg.obs] is [Obs.null] (whose counters are shared no-ops) *)
  mutable n_requests : int;
  mutable n_errors : int;
  request_lane : Obs.lane;
}

(* Bump the daemon's Obs mirror of a stats counter (no-op under
   [Obs.null]). *)
let obs_incr t name = Obs.incr (Obs.counter t.cfg.obs name)

let histo t op =
  match Hashtbl.find_opt t.histos op with
  | Some h -> h
  | None ->
    let h = Histo.create () in
    Hashtbl.replace t.histos op h;
    h

let op_name : Protocol.request -> string = function
  | Protocol.Ping -> "ping"
  | Protocol.Open _ -> "open"
  | Protocol.Run _ -> "run"
  | Protocol.Apply_delta _ -> "apply_delta"
  | Protocol.Latencies _ -> "latencies"
  | Protocol.Snapshot _ -> "snapshot"
  | Protocol.Close _ -> "close"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Session state directories                                           *)

let session_dir t name =
  Option.map (fun root -> Filename.concat root name) t.cfg.state_dir

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let session_config (cfg : config) ~(p : Protocol.open_params) ~dir : Session.config =
  let dfl v o = Option.value ~default:v o in
  let rollback = dfl cfg.rollback p.Protocol.o_rollback in
  {
    Session.default_config with
    rounds = dfl cfg.rounds p.Protocol.o_rounds;
    (* a checkpoint is scored by the evaluator: rollback needs it *)
    final_eval = rollback || dfl cfg.final_eval p.Protocol.o_final_eval;
    rollback;
    obs = cfg.obs;
    checkpoint_dir = dir;
    budget =
      {
        Budget.no_limits with
        Budget.wall_seconds =
          (match p.Protocol.o_wall_seconds with Some _ as s -> s | None -> cfg.wall_seconds);
        rss_bytes =
          (match p.Protocol.o_rss_mb with
          | Some mb -> Some (mb * 1024 * 1024)
          | None -> Option.map (fun mb -> mb * 1024 * 1024) cfg.rss_mb);
      };
  }

let add_sess t name session ~dir ~stop =
  Hashtbl.replace t.sessions name
    { sx_name = name; sx_session = session; sx_dir = dir; sx_last_stop = stop; sx_requests = 0 }

let find_sess t name =
  match Hashtbl.find_opt t.sessions name with
  | Some sx -> Ok sx
  | None -> Error (Protocol.errorf ~code:"SRV-004" "no open session named %S" name)

let save_sess sx =
  match sx.sx_dir with
  | None -> ()
  | Some dir -> (
    try Session.save sx.sx_session ~dir
    with Sys_error m -> Log.warn (fun m' -> m' "session %s: checkpoint failed: %s" sx.sx_name m))

let record_result sx (r : Session.result) =
  sx.sx_last_stop <- r.Session.stop_reason;
  save_sess sx

let handle_open t (p : Protocol.open_params) =
  if Hashtbl.mem t.sessions p.Protocol.o_session then
    Protocol.errorf ~code:"SRV-001" "session %S is already open" p.Protocol.o_session
  else if Hashtbl.length t.sessions >= t.cfg.max_sessions then
    Protocol.errorf ~code:"SRV-002" "session limit (%d) reached" t.cfg.max_sessions
  else
    match Session.algo_of_name p.Protocol.o_algo with
    | None -> Protocol.errorf ~code:"SRV-003" "unknown algorithm %S" p.Protocol.o_algo
    | Some algo -> (
      match
        Io.of_string ~source:("<open:" ^ p.Protocol.o_session ^ ">") ~library:t.cfg.library
          p.Protocol.o_design
      with
      | Error diags -> Protocol.error_of_diags diags
      | Ok (design, parse_diags) -> (
        (* the session's first checkpoint write makes its directory *)
        let name = p.Protocol.o_session in
        let dir = session_dir t name in
        match Session.open_ ~config:(session_config t.cfg ~p ~dir) ~algo design with
        | exception Validate.Invalid diags -> Protocol.error_of_diags diags
        | session ->
          add_sess t name session ~dir ~stop:"";
          obs_incr t "service.opens";
          Log.info (fun m ->
              m "open %s: %s, %d cells" name p.Protocol.o_algo
                (Css_netlist.Design.num_cells design));
          Protocol.ok
            [
              ("session", Json.String name);
              ("cells", Json.Int (Css_netlist.Design.num_cells design));
              ("ffs", Json.Int (Array.length (Css_netlist.Design.ffs design)));
              ("diags", Json.Int (List.length parse_diags));
            ]))

let handle_request t (req : Protocol.request) =
  match req with
  | Protocol.Ping -> Protocol.ok [ ("pong", Json.Bool true) ]
  | Protocol.Open p -> handle_open t p
  | Protocol.Run name -> (
    match find_sess t name with
    | Error e -> e
    | Ok sx ->
      sx.sx_requests <- sx.sx_requests + 1;
      let r = Session.finish sx.sx_session in
      record_result sx r;
      Protocol.ok [ ("result", Protocol.summary_of_result r) ])
  | Protocol.Apply_delta (name, deltas) -> (
    match find_sess t name with
    | Error e -> e
    | Ok sx -> (
      sx.sx_requests <- sx.sx_requests + 1;
      match Session.apply_delta sx.sx_session deltas with
      | Error diags -> Protocol.error_of_diags diags
      | Ok o ->
        record_result sx o.Session.d_result;
        Protocol.ok
          [
            ("result", Protocol.summary_of_result o.Session.d_result);
            ( "mode",
              Json.String
                (match o.Session.d_mode with `Incremental -> "incremental" | `Rebuild -> "rebuild")
            );
            ("touched", Json.Int o.Session.d_touched);
            ("seconds", Json.Float o.Session.d_seconds);
            ("diags", Json.Int (List.length o.Session.d_diags));
          ]))
  | Protocol.Latencies name -> (
    match find_sess t name with
    | Error e -> e
    | Ok sx ->
      Protocol.ok [ ("latencies", Protocol.latencies_json (Session.design sx.sx_session)) ])
  | Protocol.Snapshot name -> (
    match find_sess t name with
    | Error e -> e
    | Ok sx -> (
      match sx.sx_dir with
      | None -> Protocol.errorf ~code:"SRV-005" "daemon has no --state directory"
      | Some dir ->
        Session.save sx.sx_session ~dir;
        Protocol.ok [ ("dir", Json.String dir) ]))
  | Protocol.Close name -> (
    match find_sess t name with
    | Error e -> e
    | Ok sx ->
      Session.close sx.sx_session;
      Hashtbl.remove t.sessions name;
      (* a cleanly closed session must not resurrect at restart *)
      Option.iter rm_rf sx.sx_dir;
      obs_incr t "service.closes";
      Protocol.ok [ ("closed", Json.String name) ])
  | Protocol.Stats ->
    let sessions =
      Hashtbl.fold
        (fun _ sx acc ->
          Json.Obj
            [
              ("session", Json.String sx.sx_name);
              ("stop_reason", Json.String sx.sx_last_stop);
              ("requests", Json.Int sx.sx_requests);
            ]
          :: acc)
        t.sessions []
    in
    let histograms =
      Hashtbl.fold (fun op h acc -> (op, Histo.to_json h) :: acc) t.histos []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    Protocol.ok
      [
        ("requests", Json.Int t.n_requests);
        ("errors", Json.Int t.n_errors);
        ("sessions_open", Json.Int (Hashtbl.length t.sessions));
        ("sessions", Json.List sessions);
        ("request_seconds", Json.Obj histograms);
      ]
  | Protocol.Shutdown ->
    t.stopping <- true;
    Protocol.ok [ ("stopping", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* Connection plumbing                                                 *)

let drop_client t fd =
  t.clients <- List.filter (fun c -> c <> fd) t.clients;
  try Unix.close fd with Unix.Unix_error _ -> ()

let respond t req =
  let t0 = Wall_clock.now () in
  let resp =
    try handle_request t req with
    | Validate.Invalid diags -> Protocol.error_of_diags diags
    | Protocol.Bad_request m -> Protocol.error "bad request: %s" m
    | e -> Protocol.error "internal error: %s" (Printexc.to_string e)
  in
  let dt = Wall_clock.now () -. t0 in
  let op = op_name req in
  Histo.observe (histo t op) dt;
  Histo.observe (Obs.histogram t.cfg.obs ("service.seconds." ^ op)) dt;
  Obs.sample t.request_lane dt;
  t.n_requests <- t.n_requests + 1;
  obs_incr t "service.requests";
  obs_incr t ("service." ^ op);
  if not (Protocol.is_ok resp) then begin
    t.n_errors <- t.n_errors + 1;
    obs_incr t "service.errors"
  end;
  resp

let handle_client_frame t fd =
  Atomic.set t.in_request true;
  Fun.protect
    ~finally:(fun () -> Atomic.set t.in_request false)
    (fun () ->
      match Protocol.read_frame fd with
      | exception Protocol.Framing m ->
        Log.warn (fun m' -> m' "dropping client: %s" m);
        drop_client t fd
      | exception Unix.Unix_error (e, _, _) ->
        Log.warn (fun m -> m "dropping client: %s" (Unix.error_message e));
        drop_client t fd
      | None -> drop_client t fd
      | Some payload -> (
        let resp =
          match Json.of_string payload with
          | exception Failure m -> Protocol.error "SRV-000 bad JSON: %s" m
          | j -> (
            match Protocol.request_of_json j with
            | exception Protocol.Bad_request m -> Protocol.error "SRV-000 bad request: %s" m
            | req -> respond t req)
        in
        try Protocol.write_frame fd (Json.to_string resp)
        with Protocol.Framing _ | Unix.Unix_error _ -> drop_client t fd))

(* ------------------------------------------------------------------ *)
(* Restart: bring back every session the state directory holds         *)

(* Every [<state>/<name>/] holding a checkpoint is a session: its
   settings travel in the checkpoint, so it reopens under the daemon's
   own sink and writes back where it was read. *)
let restore_sessions t =
  match t.cfg.state_dir with
  | None -> ()
  | Some root when not (Sys.file_exists root) -> ()
  | Some root ->
    Array.iter
      (fun name ->
        let dir = Filename.concat root name in
        if Sys.is_directory dir then
          if not (Sys.file_exists (Persist.path ~dir)) then
            Log.info (fun m -> m "state dir %s holds no checkpoint; skipped" dir)
          else
            let config =
              { Session.default_config with obs = t.cfg.obs; checkpoint_dir = Some dir }
            in
            match Session.reopen ~config ~library:t.cfg.library ~dir () with
            | Error diags ->
              Log.warn (fun m ->
                  m "session %s did not resume: %s" name
                    (String.concat "; " (List.map Diag.to_string diags)))
            | Ok session ->
              add_sess t name session ~dir:(Some dir) ~stop:"resumed";
              obs_incr t "service.resumes";
              Log.info (fun m -> m "resumed session %s" name))
      (Sys.readdir root)

(* ------------------------------------------------------------------ *)
(* The daemon loop                                                     *)

let orderly_shutdown t =
  Hashtbl.iter
    (fun _ sx ->
      save_sess sx;
      Session.close sx.sx_session)
    t.sessions;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.clients;
  t.clients <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.cfg.socket with Unix.Unix_error _ | Sys_error _ -> ()

let serve ?(on_ready = fun () -> ()) cfg =
  Option.iter mkdir_p cfg.state_dir;
  (try Unix.unlink cfg.socket with Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
  Unix.listen listen_fd 16;
  let t =
    {
      cfg;
      sessions = Hashtbl.create 16;
      histos = Hashtbl.create 8;
      stopping = false;
      clients = [];
      listen_fd;
      in_request = Atomic.make false;
      n_requests = 0;
      n_errors = 0;
      request_lane = Obs.lane cfg.obs "service.request_s";
    }
  in
  restore_sessions t;
  (* One handler for the whole daemon: raise the cooperative interrupt
     (any in-flight run stops at its next poll, its own phase checkpoint
     already durable) and, when the main loop is parked in select rather
     than mid-request, save every session's checkpoint right here. *)
  let handlers =
    Persist.install_handlers
      ~on_signal:(fun _ ->
        if not (Atomic.get t.in_request) then Hashtbl.iter (fun _ sx -> save_sess sx) t.sessions)
      ()
  in
  (* A client that vanished mid-response must cost a connection, not the
     daemon: surface the broken pipe as EPIPE (handled per-frame). *)
  let sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      orderly_shutdown t;
      Persist.uninstall_handlers handlers;
      (try Option.iter (Sys.set_signal Sys.sigpipe) sigpipe with Invalid_argument _ -> ());
      Persist.clear_interrupt ())
    (fun () ->
      Log.info (fun m ->
          m "serving on %s (%d session%s restored)" cfg.socket (Hashtbl.length t.sessions)
            (if Hashtbl.length t.sessions = 1 then "" else "s"));
      on_ready ();
      while (not t.stopping) && not (Persist.interrupted ()) do
        match Unix.select (listen_fd :: t.clients) [] [] 1.0 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          List.iter
            (fun fd ->
              if fd = listen_fd then (
                match Unix.accept listen_fd with
                | client, _ -> t.clients <- client :: t.clients
                | exception Unix.Unix_error _ -> ())
              else if not (t.stopping || Persist.interrupted ()) then handle_client_frame t fd)
            ready
      done)
