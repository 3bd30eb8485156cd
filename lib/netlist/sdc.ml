module Diag = Css_util.Diag

type t = {
  period : float option;
  setup_uncertainty : float;
  hold_uncertainty : float;
  early_derate : float option;
  latency_bounds : (string * float * float) list;
}

let empty =
  {
    period = None;
    setup_uncertainty = 0.0;
    hold_uncertainty = 0.0;
    early_derate = None;
    latency_bounds = [];
  }

type policy =
  | Abort
  | Recover

exception Line_error of Diag.t

let known_commands =
  [
    "create_clock";
    "set_clock_uncertainty";
    "set_timing_derate";
    "set_latency_bounds";
    "set_max_displacement";
    "set_lcb_fanout_limit";
  ]

let parse ?source ?(policy = Abort) s =
  let col = Diag.collector () in
  let acc = ref empty in
  let fail ?hint ~code lineno fmt =
    Printf.ksprintf
      (fun m -> raise (Line_error (Diag.error ?file:source ~line:lineno ?hint ~code m)))
      fmt
  in
  let number lineno v =
    match float_of_string_opt v with
    | Some x when Float.is_finite x -> x
    | Some _ -> fail ~code:"SDC-004" lineno "non-finite number %S" v
    | None -> fail ~code:"SDC-004" lineno "expected a number, got %S" v
  in
  (* The contest limits have one home, Design; a constraint file cannot
     move them, and says so. *)
  let fixed_limit lineno msg =
    Diag.emit col (Diag.warning ?file:source ~line:lineno ~code:"SDC-006" msg)
  in
  let parse_line lineno words =
    match words with
    | [] -> ()
    | [ "create_clock"; "-period"; v ] -> acc := { !acc with period = Some (number lineno v) }
    | [ "set_clock_uncertainty"; "-setup"; v ] ->
      acc := { !acc with setup_uncertainty = number lineno v }
    | [ "set_clock_uncertainty"; "-hold"; v ] ->
      acc := { !acc with hold_uncertainty = number lineno v }
    | [ "set_timing_derate"; "-early"; v ] ->
      acc := { !acc with early_derate = Some (number lineno v) }
    | [ "set_latency_bounds"; cell; lo; hi ] ->
      acc :=
        {
          !acc with
          latency_bounds = (cell, number lineno lo, number lineno hi) :: !acc.latency_bounds;
        }
    | [ "set_max_displacement"; v ] ->
      ignore (number lineno v);
      fixed_limit lineno
        (Printf.sprintf "set_max_displacement is ignored: the displacement budget is %g DBU \
                         (Css_netlist.Design.max_displacement)"
           Design.max_displacement)
    | [ "set_lcb_fanout_limit"; v ] ->
      ignore (number lineno v);
      fixed_limit lineno
        (Printf.sprintf "set_lcb_fanout_limit is ignored: the LCB fanout limit is %d \
                         (Css_netlist.Design.lcb_fanout_limit)"
           Design.lcb_fanout_limit)
    | cmd :: _ ->
      fail ~code:"SDC-001"
        ?hint:(Diag.did_you_mean cmd known_commands)
        lineno "unknown or malformed command %S" cmd
  in
  let aborted = ref false in
  (try
     String.split_on_char '\n' s
     |> List.iteri (fun i raw ->
            let lineno = i + 1 in
            (* strip trailing comments *)
            let line =
              match String.index_opt raw '#' with
              | Some j -> String.sub raw 0 j
              | None -> raw
            in
            let words =
              String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
            in
            try parse_line lineno words
            with Line_error d ->
              Diag.emit col d;
              if policy = Abort then raise Exit)
   with Exit -> aborted := true);
  if !aborted then Error (Diag.diags col)
  else Ok ({ !acc with latency_bounds = List.rev !acc.latency_bounds }, Diag.diags col)

let first_error ds =
  match List.find_opt Diag.is_error ds with Some d -> d | None -> List.hd ds

let parse_exn s =
  match parse s with
  | Ok (t, _) -> t
  | Error ds -> failwith (Diag.to_string (first_error ds))

let load ?policy path =
  let read () =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match read () with
  | exception Sys_error m ->
    Error [ Diag.error ~file:path ~code:"SDC-000" (Printf.sprintf "cannot read: %s" m) ]
  | s -> parse ~source:path ?policy s

let apply ?(policy = Abort) t design =
  let col = Diag.collector () in
  let ff_names =
    Array.to_list (Array.map (fun ff -> Design.cell_name design ff) (Design.ffs design))
  in
  let by_name = Hashtbl.create 64 in
  Array.iter
    (fun ff -> Hashtbl.replace by_name (Design.cell_name design ff) ff)
    (Design.ffs design);
  (match t.period with
  | Some p when Float.abs (p -. Design.clock_period design) > 1e-9 ->
    Diag.emit col
      (Diag.error ~code:"SDC-002"
         (Printf.sprintf "constraint period %.6g disagrees with the design's %.6g" p
            (Design.clock_period design)))
  | Some _ | None -> ());
  List.iter
    (fun (name, lo, hi) ->
      match Hashtbl.find_opt by_name name with
      | Some ff -> (
        try Design.set_latency_bounds design ff ~lo ~hi
        with Invalid_argument m ->
          Diag.emit col
            (Diag.error ~code:"SDC-005"
               (Printf.sprintf "bad latency bounds for %S: %s" name m)))
      | None ->
        Diag.emit col
          (Diag.error ~code:"SDC-003"
             ?hint:(Diag.did_you_mean name ff_names)
             (Printf.sprintf "no flip-flop named %S" name)))
    t.latency_bounds;
  let ds = Diag.diags col in
  if Diag.error_count col > 0 && policy = Abort then Error ds else Ok ds

let apply_exn t design =
  match apply t design with
  | Ok _ -> ()
  | Error ds -> failwith (Diag.to_string (first_error ds))
