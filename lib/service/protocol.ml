module Json = Css_util.Json
module Io = Css_netlist.Io
module Session = Css_flow.Session

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let max_frame = 64 * 1024 * 1024

exception Framing of string

let rec write_all fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Framing (Printf.sprintf "frame of %d bytes exceeds max %d" len max_frame));
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  write_all fd buf 0 (4 + len)

(* [read_exact fd n] is [Some bytes] or [None] on EOF at a frame
   boundary (offset 0); EOF mid-frame is a [Framing] error. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some buf
    else
      let r =
        try Unix.read fd buf off (n - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> -1
      in
      if r < 0 then go off
      else if r = 0 then
        if off = 0 then None
        else raise (Framing (Printf.sprintf "connection closed mid-frame (%d/%d bytes)" off n))
      else go (off + r)
  in
  go 0

let read_frame fd =
  match read_exact fd 4 with
  | None -> None
  | Some hdr ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame then
      raise (Framing (Printf.sprintf "bad frame length %d" len));
    (match read_exact fd len with
    | None -> raise (Framing "connection closed mid-frame (0 payload bytes)")
    | Some payload -> Some (Bytes.unsafe_to_string payload))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type open_params = {
  o_session : string;
  o_design : string;
  o_algo : string;
  o_rounds : int option;
  o_final_eval : bool option;
  o_rollback : bool option;
  o_wall_seconds : float option;
  o_rss_mb : int option;
}

type request =
  | Ping
  | Open of open_params
  | Run of string
  | Apply_delta of string * Session.delta list
  | Latencies of string
  | Snapshot of string
  | Close of string
  | Stats
  | Shutdown

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* Exact floats travel as strings produced by [Io.float_to_string];
   plain JSON numbers are also accepted for hand-written requests. *)
let float_field obj name =
  match Json.member name obj with
  | Some (Json.String s) -> (
    match float_of_string_opt s with
    | Some f -> f
    | None -> bad "field %S: unparseable float %S" name s)
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some _ -> bad "field %S: expected a float" name
  | None -> bad "missing float field %S" name

let string_field obj name =
  match Json.member name obj with
  | Some (Json.String s) -> s
  | Some _ -> bad "field %S: expected a string" name
  | None -> bad "missing string field %S" name

let opt_int obj name =
  match Json.member name obj with
  | Some (Json.Int i) -> Some i
  | Some Json.Null | None -> None
  | Some _ -> bad "field %S: expected an int" name

let opt_bool obj name =
  match Json.member name obj with
  | Some (Json.Bool b) -> Some b
  | Some Json.Null | None -> None
  | Some _ -> bad "field %S: expected a bool" name

let opt_float obj name =
  match Json.member name obj with
  | Some Json.Null | None -> None
  | Some _ -> Some (float_field obj name)

let fstr f = Json.String (Io.float_to_string f)

let delta_to_json : Session.delta -> Json.t = function
  | Session.Move_cell { cell; x; y } ->
    Json.Obj [ ("kind", Json.String "move_cell"); ("cell", Json.String cell); ("x", fstr x); ("y", fstr y) ]
  | Session.Set_latency { ff; latency } ->
    Json.Obj [ ("kind", Json.String "set_latency"); ("ff", Json.String ff); ("latency", fstr latency) ]
  | Session.Set_bounds { ff; lo; hi } ->
    Json.Obj [ ("kind", Json.String "set_bounds"); ("ff", Json.String ff); ("lo", fstr lo); ("hi", fstr hi) ]
  | Session.Apply_sdc text -> Json.Obj [ ("kind", Json.String "apply_sdc"); ("text", Json.String text) ]
  | Session.Replace_design text ->
    Json.Obj [ ("kind", Json.String "replace_design"); ("text", Json.String text) ]

let delta_of_json j : Session.delta =
  match string_field j "kind" with
  | "move_cell" ->
    Session.Move_cell { cell = string_field j "cell"; x = float_field j "x"; y = float_field j "y" }
  | "set_latency" -> Session.Set_latency { ff = string_field j "ff"; latency = float_field j "latency" }
  | "set_bounds" ->
    Session.Set_bounds { ff = string_field j "ff"; lo = float_field j "lo"; hi = float_field j "hi" }
  | "apply_sdc" -> Session.Apply_sdc (string_field j "text")
  | "replace_design" -> Session.Replace_design (string_field j "text")
  | k -> bad "unknown delta kind %S" k

let request_to_json : request -> Json.t = function
  | Ping -> Json.Obj [ ("op", Json.String "ping") ]
  | Open p ->
    let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
    Json.Obj
      ([
         ("op", Json.String "open");
         ("session", Json.String p.o_session);
         ("algo", Json.String p.o_algo);
         ("design", Json.String p.o_design);
       ]
      @ opt "rounds" p.o_rounds (fun i -> Json.Int i)
      @ opt "final_eval" p.o_final_eval (fun b -> Json.Bool b)
      @ opt "rollback" p.o_rollback (fun b -> Json.Bool b)
      @ opt "wall_seconds" p.o_wall_seconds fstr
      @ opt "rss_mb" p.o_rss_mb (fun i -> Json.Int i))
  | Run s -> Json.Obj [ ("op", Json.String "run"); ("session", Json.String s) ]
  | Apply_delta (s, ds) ->
    Json.Obj
      [
        ("op", Json.String "apply_delta");
        ("session", Json.String s);
        ("deltas", Json.List (List.map delta_to_json ds));
      ]
  | Latencies s -> Json.Obj [ ("op", Json.String "latencies"); ("session", Json.String s) ]
  | Snapshot s -> Json.Obj [ ("op", Json.String "snapshot"); ("session", Json.String s) ]
  | Close s -> Json.Obj [ ("op", Json.String "close"); ("session", Json.String s) ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]

let request_of_json j : request =
  match string_field j "op" with
  | "ping" -> Ping
  | "open" ->
    Open
      {
        o_session = string_field j "session";
        o_design = string_field j "design";
        o_algo = string_field j "algo";
        o_rounds = opt_int j "rounds";
        o_final_eval = opt_bool j "final_eval";
        o_rollback = opt_bool j "rollback";
        o_wall_seconds = opt_float j "wall_seconds";
        o_rss_mb = opt_int j "rss_mb";
      }
  | "run" -> Run (string_field j "session")
  | "apply_delta" ->
    let deltas =
      match Json.member "deltas" j with
      | Some (Json.List ds) -> List.map delta_of_json ds
      | _ -> bad "missing delta list"
    in
    Apply_delta (string_field j "session", deltas)
  | "latencies" -> Latencies (string_field j "session")
  | "snapshot" -> Snapshot (string_field j "session")
  | "close" -> Close (string_field j "session")
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | op -> bad "unknown op %S" op

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let error_of_diags diags =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.List
          (List.map
             (fun d ->
               Json.Obj
                 [
                   ("code", Json.String d.Css_util.Diag.code);
                   ("message", Json.String d.Css_util.Diag.message);
                 ])
             diags) );
    ]

let errorf ~code fmt =
  Printf.ksprintf (fun m -> error_of_diags [ Css_util.Diag.error ~code m ]) fmt

let error fmt = errorf ~code:"SRV-000" fmt

let is_ok j = match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false

(* Result summaries carry both readable numbers and the exact string
   form, so clients can compare bitwise without re-deriving floats. *)
let summary_of_result (r : Session.result) =
  let rep = r.Session.report in
  Json.Obj
    [
      ("algo", Json.String r.Session.algo);
      ("benchmark", Json.String r.Session.benchmark);
      ("stop_reason", Json.String r.Session.stop_reason);
      ("rolled_back", Json.Bool r.Session.rolled_back);
      ("resumed", Json.Bool r.Session.resumed);
      ("degradations", Json.List (List.map (fun s -> Json.String s) r.Session.degradations));
      ("css_iterations", Json.Int r.Session.css_iterations);
      ("extracted_edges", Json.Int r.Session.extracted_edges);
      ("total_seconds", Json.Float r.Session.total_seconds);
      ("wns_early", fstr rep.Css_eval.Evaluator.wns_early);
      ("tns_early", fstr rep.Css_eval.Evaluator.tns_early);
      ("wns_late", fstr rep.Css_eval.Evaluator.wns_late);
      ("tns_late", fstr rep.Css_eval.Evaluator.tns_late);
    ]

let signoff_diffs resp r =
  let want = summary_of_result r in
  List.filter
    (fun field ->
      match Option.bind (Json.member "result" resp) (Json.member field) with
      | Some got -> Some got <> Json.member field want
      | None -> true)
    [ "wns_early"; "tns_early"; "wns_late"; "tns_late" ]

let latencies_json design =
  let module Design = Css_netlist.Design in
  let ffs = Design.ffs design in
  Json.List
    (Array.to_list ffs
    |> List.map (fun ff ->
           Json.Obj
             [
               ("ff", Json.String (Design.cell_name design ff));
               ("latency", fstr (Design.scheduled_latency design ff));
             ]))
