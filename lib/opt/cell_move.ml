module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Design = Css_netlist.Design
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect

(* Radius refinement steps: trial radii run from 1/steps of the
   displacement budget up to the whole budget. *)
let steps = 10

(* Least early-slack gain that accepts a move, ps. *)
let improve_eps = 0.05

(* Tolerated late-WNS degradation, ps. *)
let late_guard = 1e-6

type stats = {
  mutable endpoints_processed : int;
  mutable endpoints_fixed : int;
  mutable moves_tried : int;
  mutable moves_accepted : int;
}

(* Combinational cells along the critical early path, deduplicated. *)
let movable_cells timer endpoint =
  let design = Timer.design timer in
  let pins = Timer.worst_path timer Timer.Early endpoint in
  let cells =
    List.filter_map
      (fun pin ->
        match Design.pin_owner design pin with
        | Design.Cell_pin (c, _) when not (Design.is_ff design c || Design.is_lcb design c) ->
          Some c
        | Design.Cell_pin _ | Design.Port_pin _ -> None)
      pins
  in
  List.sort_uniq compare cells

let repair_early timer =
  let design = Timer.design timer in
  let die = Design.die design in
  let stats =
    { endpoints_processed = 0; endpoints_fixed = 0; moves_tried = 0; moves_accepted = 0 }
  in
  let endpoint_slack e = Timer.endpoint_slack timer Timer.Early e in
  let directions = [ (0.0, 1.0); (0.0, -1.0); (1.0, 0.0); (-1.0, 0.0) ] in
  (* Try to improve [endpoint] by moving [cell]. An accepted move is
     followed by further attempts from the new position while the
     endpoint is still violated and the displacement budget allows — a
     single hop of the radius schedule is rarely the whole repair. *)
  let try_cell endpoint cell =
    let anchor = Design.cell_orig_pos design cell in
    let before_late = Timer.wns timer Timer.Late in
    let any_accepted = ref false in
    let rec sweep () =
      if endpoint_slack endpoint < 0.0 then begin
        let base_pos = Design.cell_pos design cell in
        let base_early = endpoint_slack endpoint in
        let accepted = ref false in
        let step = ref 1 in
        while (not !accepted) && !step <= steps do
          let radius = Design.max_displacement *. float_of_int !step /. float_of_int steps in
          List.iter
            (fun (dx, dy) ->
              if not !accepted then begin
                let cand =
                  Rect.clamp die
                    (Point.make (base_pos.Point.x +. (dx *. radius))
                       (base_pos.Point.y +. (dy *. radius)))
                in
                if Point.manhattan cand anchor <= Design.max_displacement then begin
                  stats.moves_tried <- stats.moves_tried + 1;
                  Design.move_cell design cell cand;
                  Timer.update_moved_cells timer [ cell ];
                  let early_ok = endpoint_slack endpoint > base_early +. improve_eps in
                  let late_ok = Timer.wns timer Timer.Late >= before_late -. late_guard in
                  if early_ok && late_ok then begin
                    accepted := true;
                    stats.moves_accepted <- stats.moves_accepted + 1
                  end
                  else begin
                    Design.move_cell design cell base_pos;
                    Timer.update_moved_cells timer [ cell ]
                  end
                end
              end)
            directions;
          incr step
        done;
        if !accepted then begin
          any_accepted := true;
          sweep ()
        end
      end
    in
    sweep ();
    !any_accepted
  in
  let violated = Timer.violated_endpoints timer Timer.Early in
  List.iter
    (fun (endpoint, _) ->
      if endpoint_slack endpoint < 0.0 then begin
        stats.endpoints_processed <- stats.endpoints_processed + 1;
        let cells = movable_cells timer endpoint in
        let rec loop = function
          | [] -> ()
          | c :: rest ->
            if endpoint_slack endpoint < 0.0 then begin
              ignore (try_cell endpoint c);
              loop rest
            end
        in
        loop cells;
        if endpoint_slack endpoint >= 0.0 then stats.endpoints_fixed <- stats.endpoints_fixed + 1
      end)
    violated;
  stats
