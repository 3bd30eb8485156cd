(* Tests for the physical optimization passes: LCB-FF reconnection
   (Section IV-A) and cell movement (Section IV-B). *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Reconnect = Css_opt.Reconnect
module Cell_move = Css_opt.Cell_move
module Engine = Css_core.Engine
module Scheduler = Css_core.Scheduler
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Extract = Css_seqgraph.Extract
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Point = Css_geometry.Point

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Reconnection *)

let test_reconnect_realizes_target () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(20) in
  let before = Design.physical_clock_latency design ff in
  let target = 80.0 in
  let stats = Reconnect.realize timer ~targets:[ (ff, target) ] in
  checki "attempted" 1 stats.Reconnect.attempted;
  let after = Design.physical_clock_latency design ff in
  checkb "latency moved towards target" true (after > before);
  (* the achieved latency is within a branch-quantization error *)
  checkb "reasonably close" true (Float.abs (after -. (before +. target)) < 40.0)

let test_reconnect_clears_scheduled () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(15) in
  Design.set_scheduled_latency design ff 50.0;
  Timer.update_latencies timer [ ff ];
  ignore (Reconnect.realize timer ~targets:[ (ff, 50.0) ]);
  checkf 1e-9 "scheduled consumed" 0.0 (Design.scheduled_latency design ff)

let test_reconnect_small_target_keeps_lcb () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let ff = (Design.ffs design).(10) in
  let lcb0 = Design.lcb_of_ff design ff in
  let stats = Reconnect.realize timer ~targets:[ (ff, 0.05) ] in
  checki "below min_target: not attempted" 0 stats.Reconnect.attempted;
  checki "lcb unchanged" lcb0 (Design.lcb_of_ff design ff)

let test_reconnect_respects_fanout_limit () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let targets = Array.to_list (Array.map (fun ff -> (ff, 60.0)) (Design.ffs design)) in
  ignore (Reconnect.realize timer ~targets);
  Array.iter
    (fun lcb ->
      checkb "fanout within the limit" true
        (Design.lcb_fanout design lcb <= Design.lcb_fanout_limit))
    (Design.lcbs design)

(* One pass lets an LCB adopt at most 8 flip-flops. *)
let test_reconnect_adoption_cap () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let before = Array.map (fun lcb -> Design.lcb_fanout design lcb) (Design.lcbs design) in
  let targets = Array.to_list (Array.map (fun ff -> (ff, 60.0)) (Design.ffs design)) in
  ignore (Reconnect.realize timer ~targets);
  Array.iteri
    (fun i lcb ->
      checkb "at most eight adoptions" true (Design.lcb_fanout design lcb <= before.(i) + 8))
    (Design.lcbs design)

let test_reconnect_reduces_violation_after_css () =
  (* the full CSS -> realize pipeline leaves a better *physical* state *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let eval0 = Css_eval.Evaluator.evaluate design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Early in
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  let targets = ref [] in
  Array.iteri
    (fun v l ->
      if l > 1e-9 then
        match Vertex.ff_of verts v with
        | Some ff -> targets := (ff, l) :: !targets
        | None -> ())
    result.Scheduler.target_latency;
  ignore (Reconnect.realize timer ~targets:!targets);
  let eval1 = Css_eval.Evaluator.evaluate design in
  checkb "physical early TNS improved" true
    (eval1.Css_eval.Evaluator.tns_early > eval0.Css_eval.Evaluator.tns_early)

(* ------------------------------------------------------------------ *)
(* Reconnection identity: the flat scan against a list-based reference *)

module Wire = Css_liberty.Wire
module Library = Css_liberty.Library
module Cell = Css_liberty.Cell
module Rect = Css_geometry.Rect

(* What the reference saw, summed over a trial set: each must be
   nonzero, or the identity checks prove nothing about that rule. *)
type coverage = {
  mutable full : int;  (** an LCB refused at the fanout limit *)
  mutable capped : int;  (** an LCB refused after 8 adoptions *)
  mutable netless : int;  (** an LCB refused for having no output net *)
  mutable score_ties : int;  (** equal rank keys among the 12 costed *)
  mutable cost_ties : int;  (** a candidate costing exactly the best so far *)
  mutable last_won : int;  (** the 12th-ranked of more than 12 eligible won *)
}

(* Reconnection as a filter / sort / take-12 / fold over lists, with the
   clock-net box rebuilt from the live net for every cost: the obviously
   right spelling of Section IV-A that [Reconnect.realize] must match
   choice for choice and bit for bit. Returns
   [(attempted, reconnected, residual_error)]. *)
let reference_realize cov design ~targets =
  let wire = Library.wire (Design.library design) in
  let lcb_params lcb =
    let master = Design.cell_master design lcb in
    let insertion =
      match master.Cell.role with
      | Cell.Clock_buffer { insertion } -> insertion
      | Cell.Combinational | Cell.Flip_flop _ -> 0.0
    in
    (insertion, master.Cell.drive_res)
  in
  let achieved lcb ff_pos =
    let insertion, res = lcb_params lcb in
    insertion +. Wire.delay wire ~r_drive:res ~len:(Point.manhattan (Design.cell_pos design lcb) ff_pos)
  in
  let out_net lcb =
    match Design.cell_pin design lcb "CKO" with
    | p -> Design.pin_net design p
    | exception Not_found -> None
  in
  let hpwl_penalty lcb ff_pos =
    match out_net lcb with
    | None -> 0.0
    | Some net -> (
      let pts =
        (match Design.net_driver design net with Some d -> [ Design.pin_pos design d ] | None -> [])
        @ List.map (Design.pin_pos design) (Design.net_sinks design net)
      in
      match pts with
      | [] -> 0.0
      | _ :: _ ->
        let box = Rect.of_points pts in
        Rect.half_perimeter (Rect.expand box ff_pos) -. Rect.half_perimeter box)
  in
  let adopted = Hashtbl.create 64 in
  let adoptions lcb = Option.value ~default:0 (Hashtbl.find_opt adopted lcb) in
  let attempted = ref 0 and reconnected = ref 0 and residual = ref 0.0 in
  let targets = List.sort (fun (_, a) (_, b) -> compare b a) targets in
  List.iter
    (fun (ff, target) ->
      Design.set_scheduled_latency design ff 0.0;
      if target > Design.min_realized_target then begin
        incr attempted;
        let ff_pos = Design.cell_pos design ff in
        let current = try Some (Design.lcb_of_ff design ff) with Not_found -> None in
        let _, hi = Design.latency_bounds design ff in
        let desired = Float.min hi (Design.physical_clock_latency design ff +. target) in
        let eligible lcb =
          let in_window = achieved lcb ff_pos <= hi +. 1e-6 in
          let own = Some lcb = current in
          let has_net = out_net lcb <> None in
          if not has_net then cov.netless <- cov.netless + 1
          else if in_window && not own then begin
            if Design.lcb_fanout design lcb >= Design.lcb_fanout_limit then
              cov.full <- cov.full + 1
            else if adoptions lcb >= 8 then cov.capped <- cov.capped + 1
          end;
          has_net && in_window
          && (own || (Design.lcb_fanout design lcb < Design.lcb_fanout_limit && adoptions lcb < 8))
        in
        let score lcb =
          let insertion, res = lcb_params lcb in
          let dist_target = Wire.length_for_delay wire ~r_drive:res ~target:(desired -. insertion) in
          Float.abs (Point.manhattan (Design.cell_pos design lcb) ff_pos -. dist_target)
        in
        let ranked =
          Array.to_list (Design.lcbs design)
          |> List.filter eligible
          |> List.map (fun lcb -> (score lcb, lcb))
          |> List.sort compare
        in
        let cands = List.filteri (fun i _ -> i < 12) ranked in
        ignore
          (List.fold_left
             (fun prev (s, _) ->
               if prev = Some s then cov.score_ties <- cov.score_ties + 1;
               Some s)
             None cands);
        let cost (_, lcb) =
          let diff = achieved lcb ff_pos -. desired in
          let latency_err = if diff > 0.0 then 3.0 *. diff else -.diff in
          latency_err +. (0.002 *. hpwl_penalty lcb ff_pos)
        in
        match cands with
        | [] -> residual := !residual +. target
        | first :: rest ->
          let best =
            List.fold_left
              (fun acc c ->
                if cost c = cost acc then cov.cost_ties <- cov.cost_ties + 1;
                if cost c < cost acc then c else acc)
              first rest
          in
          let _, best_lcb = best in
          if List.length ranked > 12 && best == List.nth cands 11 then
            cov.last_won <- cov.last_won + 1;
          if Some best_lcb <> current then begin
            Design.reconnect_ff_to_lcb design ~ff ~lcb:best_lcb;
            Hashtbl.replace adopted best_lcb (adoptions best_lcb + 1);
            incr reconnected
          end;
          residual := !residual +. Float.abs (achieved best_lcb ff_pos -. desired)
      end)
    targets;
  (!attempted, !reconnected, !residual)

(* A random clock network on a coarse grid, so equal LCB distances (and
   equal costs) are common: 5-28 LCBs, one with no output net and one
   at exactly the fanout limit; FFs spread over the rest, a quarter with
   a latency window and one with an unconnected clock pin. Returns the
   design and the reconnection targets. *)
let random_clock_design seed =
  let rng = Random.State.make [| seed; 0x1cb |] in
  let grid step = float_of_int (step * Random.State.int rng (4000 / step + 1)) in
  let d =
    Design.create ~name:(Printf.sprintf "rc%d" seed) ~library:Library.default
      ~die:(Rect.make ~lx:0. ~ly:0. ~hx:4000. ~hy:4000.)
      ~clock_period:400.0 ()
  in
  let clk = Design.add_port d ~name:"clk" ~dir:Design.In ~pos:(Point.make 0. 0.) in
  Design.set_clock_root d clk;
  let nl = 5 + Random.State.int rng 24 in
  (* about half the LCBs share one spot: more than 12 candidates tied on
     rank key and latency, told apart only by their nets' boxes *)
  let hub = Point.make (grid 500) (grid 500) in
  let lcbs =
    Array.init nl (fun i ->
        Design.add_cell d ~name:(Printf.sprintf "lcb%d" i) ~master:"LCB"
          ~pos:(if Random.State.bool rng then hub else Point.make (grid 500) (grid 500)))
  in
  let pin c n = Design.cell_pin d c n in
  ignore
    (Design.add_net d ~name:"clk" ~driver:(Design.port_pin d clk)
       ~sinks:(Array.to_list (Array.map (fun l -> pin l "CKI") lcbs)));
  (* lcbs.(0) drives nothing; lcbs.(1) is full *)
  let nff = Design.lcb_fanout_limit + 40 + Random.State.int rng 80 in
  let ffs =
    Array.init nff (fun i ->
        Design.add_cell d ~name:(Printf.sprintf "ff%d" i) ~master:"DFF"
          ~pos:(Point.make (grid 100) (grid 100)))
  in
  let sinks = Array.make nl [] in
  Array.iteri
    (fun i ff ->
      if i = nff - 1 then () (* clock pin left unconnected *)
      else begin
        let l = if i < Design.lcb_fanout_limit then 1 else 2 + Random.State.int rng (nl - 2) in
        sinks.(l) <- pin ff "CK" :: sinks.(l)
      end)
    ffs;
  for l = 1 to nl - 1 do
    ignore
      (Design.add_net d ~name:(Printf.sprintf "ck%d" l) ~driver:(pin lcbs.(l) "CKO")
         ~sinks:(List.rev sinks.(l)))
  done;
  (* some windows end just short of an LCB's latency: only the 1e-6
     tolerance admits it *)
  let wire = Library.wire Library.default in
  let latency_via ff lcb =
    let master = Design.cell_master d lcb in
    let insertion =
      match master.Cell.role with Cell.Clock_buffer { insertion } -> insertion | _ -> 0.0
    in
    insertion
    +. Wire.delay wire ~r_drive:master.Cell.drive_res
         ~len:(Point.manhattan (Design.cell_pos d lcb) (Design.cell_pos d ff))
  in
  Array.iter
    (fun ff ->
      match Random.State.int rng 8 with
      | 0 -> Design.set_latency_bounds d ff ~lo:0.0 ~hi:(45.0 +. Random.State.float rng 150.0)
      | 1 ->
        let lcb = lcbs.(1 + Random.State.int rng (nl - 1)) in
        Design.set_latency_bounds d ff ~lo:0.0 ~hi:(latency_via ff lcb -. 5e-7)
      | _ -> ())
    ffs;
  let targets =
    Array.to_list ffs
    |> List.filter (fun _ -> Random.State.int rng 4 > 0)
    |> List.map (fun ff ->
           let t =
             match Random.State.int rng 6 with
             | 0 -> 0.1 (* below the realization threshold *)
             | 1 -> float_of_int (10 * Random.State.int rng 12)
             | _ -> Random.State.float rng 150.0
           in
           (ff, t))
  in
  (d, targets)

let test_reconnect_identity () =
  let cov = { full = 0; capped = 0; netless = 0; score_ties = 0; cost_ties = 0; last_won = 0 } in
  let bits = Int64.bits_of_float in
  for seed = 1 to 40 do
    let reference, targets = random_clock_design seed in
    let design, _ = random_clock_design seed in
    let attempted, reconnected, residual = reference_realize cov reference ~targets in
    let stats = Reconnect.realize (Timer.build design) ~targets in
    let ctx = Printf.sprintf "seed %d" seed in
    checki (ctx ^ ": attempted") attempted stats.Reconnect.attempted;
    checki (ctx ^ ": reconnected") reconnected stats.Reconnect.reconnected;
    Alcotest.(check int64) (ctx ^ ": residual bits") (bits residual)
      (bits stats.Reconnect.residual_error);
    Array.iter
      (fun ff ->
        let lcb d = try Design.lcb_of_ff d ff with Not_found -> -1 in
        checki (Printf.sprintf "%s: LCB of %s" ctx (Design.cell_name design ff))
          (lcb reference) (lcb design))
      (Design.ffs design);
    (* sink order too: both swap-remove in the same sequence *)
    Alcotest.(check string) (ctx ^ ": design text") (Css_netlist.Io.to_string reference)
      (Css_netlist.Io.to_string design)
  done;
  checkb "an LCB at the fanout limit was refused" true (cov.full > 0);
  checkb "an LCB at the adoption cap was refused" true (cov.capped > 0);
  checkb "an LCB with no output net was refused" true (cov.netless > 0);
  checkb "rank keys tied" true (cov.score_ties > 0);
  checkb "costs tied" true (cov.cost_ties > 0);
  checkb "the 12th candidate won" true (cov.last_won > 0)

(* ------------------------------------------------------------------ *)
(* Cell movement *)

(* a design whose hold violation is repairable by lengthening the data
   path: short path with a movable buffer in the middle *)
let movable_hold_design () =
  let module Rect = Css_geometry.Rect in
  let library = Css_liberty.Library.default in
  let d =
    Design.create ~name:"mv" ~library
      ~die:(Rect.make ~lx:0. ~ly:0. ~hx:4000. ~hy:4000.)
      ~clock_period:400.0 ()
  in
  let p = Point.make in
  let clk = Design.add_port d ~name:"clk" ~dir:Design.In ~pos:(p 0. 0.) in
  Design.set_clock_root d clk;
  let out = Design.add_port d ~name:"out" ~dir:Design.Out ~pos:(p 4000. 2000.) in
  let inp = Design.add_port d ~name:"in" ~dir:Design.In ~pos:(p 0. 2000.) in
  let lcb0 = Design.add_cell d ~name:"lcb0" ~master:"LCB" ~pos:(p 500. 500.) in
  let lcb1 = Design.add_cell d ~name:"lcb1" ~master:"LCB" ~pos:(p 3500. 3500.) in
  let ffa = Design.add_cell d ~name:"ffa" ~master:"DFF" ~pos:(p 600. 600.) in
  (* ffb next to ffa but clocked from far lcb1: the hold victim *)
  let ffb = Design.add_cell d ~name:"ffb" ~master:"DFF" ~pos:(p 800. 700.) in
  let buf = Design.add_cell d ~name:"buf" ~master:"BUF_X2" ~pos:(p 700. 650.) in
  let pin c n = Design.cell_pin d c n in
  let net = ref 0 in
  let add driver sinks =
    incr net;
    ignore (Design.add_net d ~name:(Printf.sprintf "n%d" !net) ~driver ~sinks)
  in
  add (Design.port_pin d clk) [ pin lcb0 "CKI"; pin lcb1 "CKI" ];
  add (pin lcb0 "CKO") [ pin ffa "CK" ];
  add (pin lcb1 "CKO") [ pin ffb "CK" ];
  add (Design.port_pin d inp) [ pin ffa "D" ];
  add (pin ffa "Q") [ pin buf "A" ];
  add (pin buf "Z") [ pin ffb "D" ];
  add (pin ffb "Q") [ Design.port_pin d out ];
  d

let test_cell_move_repairs_hold () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Early in
  checkb "hold violation present" true (tns0 < 0.0);
  let stats = Cell_move.repair_early timer in
  checkb "processed endpoints" true (stats.Cell_move.endpoints_processed >= 1);
  checkb "tried moves" true (stats.Cell_move.moves_tried >= 1);
  checkb "early TNS improved" true (Timer.tns timer Timer.Early > tns0)

let test_cell_move_respects_displacement () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  ignore (Cell_move.repair_early timer);
  Design.iter_cells design (fun c ->
      let moved = Point.manhattan (Design.cell_pos design c) (Design.cell_orig_pos design c) in
      checkb "within budget" true (moved <= Design.max_displacement +. 1e-9))

let test_cell_move_never_degrades_late_wns () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let late0 = Timer.wns timer Timer.Late in
  ignore (Cell_move.repair_early timer);
  checkb "late WNS preserved" true (Timer.wns timer Timer.Late >= late0 -. 1e-6)

let test_cell_move_noop_when_clean () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  ignore (Cell_move.repair_early timer);
  (* second run has nothing violated left to process, or at least does
     not move anything further *)
  let pos_before = Array.init (Design.num_cells design) (fun c -> Design.cell_pos design c) in
  let stats = Cell_move.repair_early timer in
  if stats.Cell_move.endpoints_processed = 0 then
    Design.iter_cells design (fun c ->
        checkb "no motion" true (Point.equal (Design.cell_pos design c) pos_before.(c)))

let test_cell_move_only_moves_combinational () =
  let design = movable_hold_design () in
  let timer = Timer.build design in
  let ff_pos = Array.map (fun ff -> Design.cell_pos design ff) (Design.ffs design) in
  let lcb_pos = Array.map (fun l -> Design.cell_pos design l) (Design.lcbs design) in
  ignore (Cell_move.repair_early timer);
  Array.iteri
    (fun i ff -> checkb "FFs unmoved" true (Point.equal (Design.cell_pos design ff) ff_pos.(i)))
    (Design.ffs design);
  Array.iteri
    (fun i l -> checkb "LCBs unmoved" true (Point.equal (Design.cell_pos design l) lcb_pos.(i)))
    (Design.lcbs design)

let () =
  Alcotest.run "opt"
    [
      ( "reconnect",
        [
          Alcotest.test_case "realizes target" `Quick test_reconnect_realizes_target;
          Alcotest.test_case "clears scheduled" `Quick test_reconnect_clears_scheduled;
          Alcotest.test_case "small target keeps LCB" `Quick test_reconnect_small_target_keeps_lcb;
          Alcotest.test_case "fanout limit" `Quick test_reconnect_respects_fanout_limit;
          Alcotest.test_case "adoption cap" `Quick test_reconnect_adoption_cap;
          Alcotest.test_case "CSS+realize improves" `Quick
            test_reconnect_reduces_violation_after_css;
          Alcotest.test_case "flat scan = list reference" `Quick test_reconnect_identity;
        ] );
      ( "cell-move",
        [
          Alcotest.test_case "repairs hold" `Quick test_cell_move_repairs_hold;
          Alcotest.test_case "displacement budget" `Quick test_cell_move_respects_displacement;
          Alcotest.test_case "late WNS preserved" `Quick test_cell_move_never_degrades_late_wns;
          Alcotest.test_case "noop when clean" `Quick test_cell_move_noop_when_clean;
          Alcotest.test_case "only moves combinational" `Quick
            test_cell_move_only_moves_combinational;
        ] );
    ]
