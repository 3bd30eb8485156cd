module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Wire = Css_liberty.Wire
module Library = Css_liberty.Library
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect

type cluster = {
  members : (Design.cell_id * float) list;
  lcb_pos : Point.t;
  expected_error : float;
}

type plan = { clusters : cluster list }

(* Budget of new LCBs one plan may propose. *)
let max_new_lcbs = 16

let kmeans_iters = 12

(* Members whose achieved latency would miss their desired value by more
   than this are not re-homed (reconnection handles them), ps. *)
let member_tolerance = 12.0

let lcb_master design = Library.clock_buffer (Design.library design)

let lcb_insertion design =
  match (lcb_master design).Cell.role with
  | Cell.Clock_buffer { insertion } -> insertion
  | Cell.Combinational | Cell.Flip_flop _ -> 0.0

(* Latency a new LCB at [pos] would give flip-flop [ff]. *)
let achieved design wire pos ff =
  let master = lcb_master design in
  let len = Point.manhattan pos (Design.cell_pos design ff) in
  lcb_insertion design +. Wire.delay wire ~r_drive:master.Cell.drive_res ~len

(* k-means in (x, y, scaled-desired-latency) space: flops that are close
   and want similar latencies share an LCB. *)
let kmeans points =
  let n = Array.length points in
  let limit = Design.lcb_fanout_limit in
  let k = max 1 (min max_new_lcbs ((n + limit - 1) / limit)) in
  (* spread latency differences onto a distance-comparable scale: 1 ps of
     latency difference ~ latency_scale DBU of separation *)
  let latency_scale = 40.0 in
  let coord (pos, desired) = (pos.Point.x, pos.Point.y, desired *. latency_scale) in
  let dist2 (x1, y1, z1) (x2, y2, z2) =
    let dx = x1 -. x2 and dy = y1 -. y2 and dz = z1 -. z2 in
    (dx *. dx) +. (dy *. dy) +. (dz *. dz)
  in
  let centers = Array.init k (fun i -> coord points.(i * n / k)) in
  let assign = Array.make n 0 in
  for _ = 1 to kmeans_iters do
    Array.iteri
      (fun i p ->
        let c = coord p in
        let best = ref 0 and best_d = ref infinity in
        Array.iteri
          (fun j center ->
            let d = dist2 c center in
            if d < !best_d then begin
              best_d := d;
              best := j
            end)
          centers;
        assign.(i) <- !best)
      points;
    let sums = Array.make k (0.0, 0.0, 0.0, 0) in
    Array.iteri
      (fun i p ->
        let x, y, z = coord p in
        let sx, sy, sz, c = sums.(assign.(i)) in
        sums.(assign.(i)) <- (sx +. x, sy +. y, sz +. z, c + 1))
      points;
    Array.iteri
      (fun j (sx, sy, sz, c) ->
        if c > 0 then
          centers.(j) <- (sx /. float_of_int c, sy /. float_of_int c, sz /. float_of_int c))
      sums
  done;
  (k, assign)

(* Site one LCB for a member set: try the members' centroid and a ring of
   positions at the Elmore radius of the mean desired latency, keep the
   position with the least mean |achieved - desired|. *)
let site_lcb design wire members =
  let centroid =
    let sx, sy, c =
      List.fold_left
        (fun (sx, sy, c) (ff, _) ->
          let p = Design.cell_pos design ff in
          (sx +. p.Point.x, sy +. p.Point.y, c + 1))
        (0.0, 0.0, 0) members
    in
    Point.make (sx /. float_of_int (max 1 c)) (sy /. float_of_int (max 1 c))
  in
  let desired_total ff target =
    let _, hi = Design.latency_bounds design ff in
    Float.min hi (Design.physical_clock_latency design ff +. target)
  in
  let mean_desired =
    List.fold_left (fun acc (ff, t) -> acc +. desired_total ff t) 0.0 members
    /. float_of_int (max 1 (List.length members))
  in
  let master = lcb_master design in
  let radius =
    Wire.length_for_delay wire ~r_drive:master.Cell.drive_res
      ~target:(mean_desired -. lcb_insertion design)
  in
  let die = Design.die design in
  let candidates =
    Rect.clamp die centroid
    :: List.map
         (fun k ->
           let theta = float_of_int k *. Float.pi /. 4.0 in
           Rect.clamp die
             (Point.make
                (centroid.Point.x +. (radius *. cos theta))
                (centroid.Point.y +. (radius *. sin theta))))
         [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let error pos =
    (* overshoot both breaks the CSS balance and risks Eq. (5) windows *)
    List.fold_left
      (fun acc (ff, t) ->
        let diff = achieved design wire pos ff -. desired_total ff t in
        acc +. (if diff > 0.0 then 3.0 *. diff else -.diff))
      0.0 members
    /. float_of_int (max 1 (List.length members))
  in
  let best =
    List.fold_left
      (fun (bp, be) pos ->
        let e = error pos in
        if e < be then (pos, e) else (bp, be))
      (centroid, error centroid) candidates
  in
  best

let plan timer ~targets =
  let design = Timer.design timer in
  let wire = Library.wire (Design.library design) in
  let eligible =
    List.filter (fun (_, t) -> t > Design.min_realized_target) targets
    |> List.map (fun (ff, t) -> (Design.cell_pos design ff, t, ff))
  in
  match eligible with
  | [] -> { clusters = [] }
  | _ ->
    let points = Array.of_list (List.map (fun (pos, t, _) -> (pos, t)) eligible) in
    let ffs = Array.of_list (List.map (fun (_, t, ff) -> (ff, t)) eligible) in
    let k, assign = kmeans points in
    let clusters = ref [] in
    for j = 0 to k - 1 do
      let members = ref [] in
      Array.iteri (fun i a -> if a = j then members := ffs.(i) :: !members) assign;
      (* honour the fanout constraint: oversized clusters keep their
         closest-to-target members, the rest stay on their old LCBs *)
      match !members with
      | [] -> ()
      | ms ->
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: tl -> x :: take (n - 1) tl
        in
        let ms = take Design.lcb_fanout_limit ms in
        (* iterate siting and member filtering to a fixpoint: every kept
           member is within tolerance (and its Eq. (5) window) of the
           *final* site, so hosting can only help *)
        let serves pos (ff, t) =
          let _, hi = Design.latency_bounds design ff in
          let a = achieved design wire pos ff in
          let desired = Float.min hi (Design.physical_clock_latency design ff +. t) in
          a <= hi +. 1e-6 && Float.abs (a -. desired) <= member_tolerance
        in
        let rec settle ms iters =
          match ms with
          | [] -> None
          | ms ->
            let pos, err = site_lcb design wire ms in
            let served = List.filter (serves pos) ms in
            if List.length served = List.length ms || iters = 0 then
              if served = [] then None else Some (List.filter (serves pos) served, pos, err)
            else settle served (iters - 1)
        in
        (match settle ms 4 with
        | Some (members, pos, err) when members <> [] ->
          clusters := { members; lcb_pos = pos; expected_error = err } :: !clusters
        | Some _ | None -> ())
    done;
    { clusters = List.rev !clusters }

let clock_root_net design =
  match Design.clock_root design with
  | None -> invalid_arg "Cts_guide.apply: design has no clock root"
  | Some port -> (
    match Design.pin_net design (Design.port_pin design port) with
    | Some n -> n
    | None -> invalid_arg "Cts_guide.apply: clock root drives no net")

type applied = {
  new_lcbs : Design.cell_id list;
  hosted : Design.cell_id list;
}

(* Inserted LCBs and their nets are named [cts_lcb<N>]/[cts_ck<N>] with
   the smallest N free in the design, so the names depend on the design
   alone, not on how many CTS passes ran before in the process. *)
let fresh_suffixes design =
  let taken = Hashtbl.create 16 in
  Design.iter_cells design (fun c -> Hashtbl.replace taken (Design.cell_name design c) ());
  Design.iter_nets design (fun n -> Hashtbl.replace taken (Design.net_name design n) ());
  let next = ref 0 in
  fun () ->
    let free k =
      not
        (Hashtbl.mem taken (Printf.sprintf "cts_lcb%d" k)
        || Hashtbl.mem taken (Printf.sprintf "cts_ck%d" k))
    in
    incr next;
    while not (free !next) do
      incr next
    done;
    !next

let apply timer plan =
  let design = Timer.design timer in
  let root_net = clock_root_net design in
  let master = (lcb_master design).Cell.name in
  let fresh = fresh_suffixes design in
  let hosted = ref [] in
  let new_lcbs =
    List.map
      (fun cluster ->
        let k = fresh () in
        let lcb =
          Design.add_cell design ~name:(Printf.sprintf "cts_lcb%d" k) ~master
            ~pos:cluster.lcb_pos
        in
        Design.net_add_sink design root_net (Design.cell_pin design lcb "CKI");
        ignore
          (Design.add_net design
             ~name:(Printf.sprintf "cts_ck%d" k)
             ~driver:(Design.cell_pin design lcb "CKO")
             ~sinks:[]);
        let wire = Library.wire (Design.library design) in
        List.iter
          (fun (ff, _) ->
            (* skip members whose Eq. (5) window the site would violate;
               they stay on their old LCB for reconnection to handle *)
            let _, hi = Design.latency_bounds design ff in
            if achieved design wire cluster.lcb_pos ff <= hi +. 1e-6 then begin
              Design.reconnect_ff_to_lcb design ~ff ~lcb;
              Design.set_scheduled_latency design ff 0.0;
              hosted := ff :: !hosted
            end)
          cluster.members;
        lcb)
      plan.clusters
  in
  Timer.update_latencies timer !hosted;
  { new_lcbs; hosted = !hosted }
