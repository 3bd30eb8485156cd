module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Library = Css_liberty.Library

(* Sweeps over the violated-endpoint list. *)
let max_passes = 2

(* Least slack gain that accepts a swap, ps. *)
let improve_eps = 0.05

(* Tolerated WNS degradation at the other corner, ps. *)
let guard = 1e-6

type stats = {
  mutable upsized : int;
  mutable downsized : int;
  mutable swaps_tried : int;
  mutable endpoints_processed : int;
}

let path_cells timer corner endpoint =
  let design = Timer.design timer in
  Timer.worst_path timer corner endpoint
  |> List.filter_map (fun pin ->
         match Design.pin_owner design pin with
         | Design.Cell_pin (c, _) when not (Design.is_ff design c || Design.is_lcb design c) ->
           Some c
         | Design.Cell_pin _ | Design.Port_pin _ -> None)
  |> List.sort_uniq compare

(* Candidate masters for [cell], strongest-first for upsizing and
   weakest-first for downsizing, current master excluded. *)
let candidates timer cell ~stronger =
  let design = Timer.design timer in
  let current = Design.cell_master design cell in
  let vs = Library.variants (Design.library design) current in
  let others = List.filter (fun (c : Cell.t) -> c.Cell.name <> current.Cell.name) vs in
  let keep (c : Cell.t) =
    if stronger then c.Cell.drive_res < current.Cell.drive_res
    else c.Cell.drive_res > current.Cell.drive_res
  in
  let sorted =
    List.sort
      (fun (a : Cell.t) b ->
        if stronger then compare a.Cell.drive_res b.Cell.drive_res
        else compare b.Cell.drive_res a.Cell.drive_res)
      (List.filter keep others)
  in
  List.map (fun (c : Cell.t) -> c.Cell.name) sorted

(* Try swapping [cell] for the endpoint's benefit; revert on failure. *)
let try_swap timer stats ~endpoint ~corner ~other_corner ~stronger cell =
  let design = Timer.design timer in
  let before_master = (Design.cell_master design cell).Cell.name in
  let before_slack = Timer.endpoint_slack timer corner endpoint in
  let before_other = Timer.wns timer other_corner in
  let rec attempt = function
    | [] -> false
    | master :: rest ->
      stats.swaps_tried <- stats.swaps_tried + 1;
      Timer.resize_cell timer cell master;
      let improved = Timer.endpoint_slack timer corner endpoint > before_slack +. improve_eps in
      let safe = Timer.wns timer other_corner >= before_other -. guard in
      if improved && safe then true
      else begin
        Timer.resize_cell timer cell before_master;
        attempt rest
      end
  in
  attempt (candidates timer cell ~stronger)

let run_pass timer ~corner ~stronger =
  let stats = { upsized = 0; downsized = 0; swaps_tried = 0; endpoints_processed = 0 } in
  let other_corner = match corner with Timer.Late -> Timer.Early | Timer.Early -> Timer.Late in
  for _pass = 1 to max_passes do
    List.iter
      (fun (endpoint, _) ->
        if Timer.endpoint_slack timer corner endpoint < 0.0 then begin
          stats.endpoints_processed <- stats.endpoints_processed + 1;
          let rec loop = function
            | [] -> ()
            | cell :: rest ->
              if Timer.endpoint_slack timer corner endpoint < 0.0 then begin
                if try_swap timer stats ~endpoint ~corner ~other_corner ~stronger cell then
                  if stronger then stats.upsized <- stats.upsized + 1
                  else stats.downsized <- stats.downsized + 1;
                loop rest
              end
          in
          loop (path_cells timer corner endpoint)
        end)
      (Timer.violated_endpoints timer corner)
  done;
  stats

let upsize_late timer = run_pass timer ~corner:Timer.Late ~stronger:true

let downsize_early timer = run_pass timer ~corner:Timer.Early ~stronger:false
