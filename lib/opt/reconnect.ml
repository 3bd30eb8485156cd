module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Wire = Css_liberty.Wire
module Library = Css_liberty.Library
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect

(* Reconnections one LCB may receive per pass: the paper's guard against
   uncontrollable clock-network topology changes. *)
let max_adoptions = 8

(* LCB candidates costed per flip-flop, nearest to the target radius first. *)
let candidates = 12

(* Cost weight of the clock-net HPWL growth, ps per DBU. *)
let wirelength_weight = 0.002

type stats = {
  mutable attempted : int;
  mutable reconnected : int;
  mutable residual_error : float;
}

let lcb_params design lcb =
  let master = Design.cell_master design lcb in
  let insertion =
    match master.Cell.role with
    | Cell.Clock_buffer { insertion } -> insertion
    | Cell.Combinational | Cell.Flip_flop _ -> 0.0
  in
  (insertion, master.Cell.drive_res)

let achieved_latency design wire lcb ff_pos =
  let insertion, res = lcb_params design lcb in
  let len = Point.manhattan (Design.cell_pos design lcb) ff_pos in
  insertion +. Wire.delay wire ~r_drive:res ~len

(* Approximate clock-net HPWL growth of adopting [ff] on [lcb]'s net: how
   far the net bounding box must expand to reach the FF. The (rare)
   shrink of the abandoned net is ignored — a conservative penalty. *)
let hpwl_penalty design lcb ff_pos =
  match Design.pin_net design (Design.cell_pin design lcb "CKO") with
  | None -> 0.0
  | Some net ->
    let pts =
      (match Design.net_driver design net with
      | Some d -> [ Design.pin_pos design d ]
      | None -> [])
      @ List.map (Design.pin_pos design) (Design.net_sinks design net)
    in
    (match pts with
    | [] -> 0.0
    | _ :: _ ->
      let bbox = Rect.of_points pts in
      Rect.half_perimeter (Rect.expand bbox ff_pos) -. Rect.half_perimeter bbox)

let realize timer ~targets =
  let design = Timer.design timer in
  let wire = Library.wire (Design.library design) in
  let lcbs = Design.lcbs design in
  let adopted = Hashtbl.create 64 in
  let adoptions lcb = Option.value ~default:0 (Hashtbl.find_opt adopted lcb) in
  let stats = { attempted = 0; reconnected = 0; residual_error = 0.0 } in
  let targets = List.sort (fun (_, a) (_, b) -> compare b a) targets in
  let changed = ref [] in
  List.iter
    (fun (ff, target) ->
      (* The scheduled (virtual) latency is consumed here: realized
         physically when possible, dropped otherwise. *)
      Design.set_scheduled_latency design ff 0.0;
      changed := ff :: !changed;
      if target > Design.min_realized_target then begin
        stats.attempted <- stats.attempted + 1;
        let ff_pos = Design.cell_pos design ff in
        let current_lcb = try Some (Design.lcb_of_ff design ff) with Not_found -> None in
        let _, hi = Design.latency_bounds design ff in
        let desired = Float.min hi (Design.physical_clock_latency design ff +. target) in
        let score lcb =
          (* rank key: distance between the LCB and the Elmore-converted
             target radius around the FF (Eq. 16) *)
          let insertion, res = lcb_params design lcb in
          let dist_target =
            Wire.length_for_delay wire ~r_drive:res ~target:(desired -. insertion)
          in
          Float.abs (Point.manhattan (Design.cell_pos design lcb) ff_pos -. dist_target)
        in
        let eligible lcb =
          (* an LCB with no output net cannot adopt anyone, and never
             move a flop somewhere its Eq. (5) window forbids *)
          Design.pin_net design (Design.cell_pin design lcb "CKO") <> None
          && achieved_latency design wire lcb ff_pos <= hi +. 1e-6
          && (Some lcb = current_lcb
             || (Design.lcb_fanout design lcb < Design.lcb_fanout_limit
                && adoptions lcb < max_adoptions))
        in
        let ranked =
          Array.to_list lcbs
          |> List.filter eligible
          |> List.map (fun lcb -> (score lcb, lcb))
          |> List.sort compare
        in
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: tl -> x :: take (k - 1) tl
        in
        let cands = take candidates ranked in
        let cost (_, lcb) =
          (* overshoot breaks the scheduler's balanced trade-offs, so it
             is penalized harder than undershoot *)
          let diff = achieved_latency design wire lcb ff_pos -. desired in
          let latency_err = if diff > 0.0 then 3.0 *. diff else -.diff in
          latency_err +. (wirelength_weight *. hpwl_penalty design lcb ff_pos)
        in
        match cands with
        | [] ->
          (* nothing admissible: keep the current LCB and record the miss *)
          stats.residual_error <- stats.residual_error +. target
        | first :: rest ->
          let best =
            List.fold_left (fun acc c -> if cost c < cost acc then c else acc) first rest
          in
          let _, best_lcb = best in
          if Some best_lcb <> current_lcb then begin
            Design.reconnect_ff_to_lcb design ~ff ~lcb:best_lcb;
            Hashtbl.replace adopted best_lcb (adoptions best_lcb + 1);
            stats.reconnected <- stats.reconnected + 1
          end;
          stats.residual_error <-
            stats.residual_error
            +. Float.abs (achieved_latency design wire best_lcb ff_pos -. desired)
      end)
    targets;
  Timer.update_latencies timer !changed;
  stats
