module Timer = Css_sta.Timer
module Design = Css_netlist.Design

type report = {
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
  num_early_violations : int;
  num_late_violations : int;
  hpwl : float;
  constraint_errors : string list;
}

(* Column scans: no pin-name hashing, no point or window tuple per cell;
   only a violation formats a message. *)
let check_constraints design =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let lcbs = Design.lcbs design and ffs = Design.ffs design in
  for i = 0 to Array.length lcbs - 1 do
    let fanout = Design.lcb_fanout design lcbs.(i) in
    if fanout > Design.lcb_fanout_limit then
      err "LCB %s fanout %d exceeds limit %d" (Design.cell_name design lcbs.(i)) fanout
        Design.lcb_fanout_limit
  done;
  for c = 0 to Design.num_cells design - 1 do
    (* [Point.manhattan] of the position and the anchor *)
    let moved =
      Float.abs (Design.cell_x design c -. Design.cell_orig_x design c)
      +. Float.abs (Design.cell_y design c -. Design.cell_orig_y design c)
    in
    if moved > Design.max_displacement +. 1e-9 then
      err "cell %s displaced %.1f DBU, budget %.1f" (Design.cell_name design c) moved
        Design.max_displacement
  done;
  for i = 0 to Array.length ffs - 1 do
    let ff = ffs.(i) in
    let l = Design.clock_latency design ff in
    if Design.latency_outside design ff l ~tol:1e-6 then begin
      let lo, hi = Design.latency_bounds design ff in
      err "flip-flop %s latency %.2f outside its [%.2f, %.2f] window" (Design.cell_name design ff)
        l lo hi
    end
  done;
  List.iter (fun e -> err "netlist: %s" e) (Design.check design);
  List.rev !errors

let live timer =
  {
    wns_early = Timer.wns timer Timer.Early;
    tns_early = Timer.tns timer Timer.Early;
    wns_late = Timer.wns timer Timer.Late;
    tns_late = Timer.tns timer Timer.Late;
    num_early_violations = Timer.violations timer Timer.Early;
    num_late_violations = Timer.violations timer Timer.Late;
    hpwl = Design.total_hpwl (Timer.design timer);
    constraint_errors = [];
  }

let report_of timer =
  { (live timer) with constraint_errors = check_constraints (Timer.design timer) }

(* Contest semantics (physical clock network only): the scheduled
   latencies are masked while the timer and the constraint audit look,
   and put back even when scoring raises. *)

let evaluate ?(timer = Timer.default_config) design =
  let ffs = Design.ffs design in
  let saved = Array.map (Design.scheduled_latency design) ffs in
  Array.iter (fun ff -> Design.set_scheduled_latency design ff 0.0) ffs;
  Fun.protect
    ~finally:(fun () -> Array.iteri (fun i l -> Design.set_scheduled_latency design ffs.(i) l) saved)
    (fun () -> report_of (Timer.build ~config:timer design))

(* On a live timer only the flip-flops that hold a scheduled latency are
   re-propagated, once to mask and once to restore; node state is a pure
   function of the design, so both views come back bitwise. *)
let score timer =
  let d = Timer.design timer in
  let held =
    Array.fold_right
      (fun ff acc ->
        let l = Design.scheduled_latency d ff in
        if l <> 0.0 then (ff, l) :: acc else acc)
      (Design.ffs d) []
  in
  if held = [] then report_of timer
  else begin
    let ffs = List.map fst held in
    let set latency =
      List.iter (fun (ff, l) -> Design.set_scheduled_latency d ff (latency l)) held;
      Timer.update_latencies timer ffs
    in
    Fun.protect ~finally:(fun () -> set Fun.id) (fun () ->
        set (fun _ -> 0.0);
        report_of timer)
  end

let summary r =
  Printf.sprintf
    "early WNS %.2f TNS %.2f (#%d) | late WNS %.2f TNS %.2f (#%d) | HPWL %.3e%s" r.wns_early
    r.tns_early r.num_early_violations r.wns_late r.tns_late r.num_late_violations r.hpwl
    (match r.constraint_errors with
    | [] -> " | constraints OK"
    | es -> Printf.sprintf " | %d CONSTRAINT VIOLATIONS" (List.length es))
