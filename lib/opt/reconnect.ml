module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Wire = Css_liberty.Wire
module Library = Css_liberty.Library

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

(* The per-call LCB table: row [i] is [Design.lcbs].(i), flat columns so
   the per-FF scan reads no record, option or string. [Design.lcbs] is
   in ascending id order, so row order is LCB id order. [net] is the
   LCB's output (CKO) net, -1 when it has none; [lx]..[hy] is that
   net's bounding box over its driver and sink pins, kept current as
   flip-flops move between nets. *)
type table = {
  lcb : int array;
  x : float array;
  y : float array;
  insertion : float array;
  res : float array;
  net : int array;
  adopted : int array;
  lx : float array;
  ly : float array;
  hx : float array;
  hy : float array;
}

let[@inline] grow tb i x y =
  tb.lx.(i) <- Float.min tb.lx.(i) x;
  tb.ly.(i) <- Float.min tb.ly.(i) y;
  tb.hx.(i) <- Float.max tb.hx.(i) x;
  tb.hy.(i) <- Float.max tb.hy.(i) y

(* the min/max fold of [Rect.of_points] over the net's pins, in any
   order (min and max are exact): the driver is the LCB's own CKO pin,
   then every sink *)
let refresh_box design tb i =
  let net = tb.net.(i) in
  tb.lx.(i) <- tb.x.(i);
  tb.ly.(i) <- tb.y.(i);
  tb.hx.(i) <- tb.x.(i);
  tb.hy.(i) <- tb.y.(i);
  for s = 0 to Design.net_fanout design net - 1 do
    let p = Design.net_sink design net s in
    grow tb i (Design.pin_x design p) (Design.pin_y design p)
  done

let table design =
  let lcbs = Design.lcbs design in
  let n = Array.length lcbs in
  let col () = Array.make n 0.0 in
  let tb =
    {
      lcb = lcbs;
      x = col ();
      y = col ();
      insertion = col ();
      res = col ();
      net = Array.make n (-1);
      adopted = Array.make n 0;
      lx = col ();
      ly = col ();
      hx = col ();
      hy = col ();
    }
  in
  Array.iteri
    (fun i lcb ->
      let master = Design.cell_master design lcb in
      tb.x.(i) <- Design.cell_x design lcb;
      tb.y.(i) <- Design.cell_y design lcb;
      (tb.insertion.(i) <-
         match master.Cell.role with
         | Cell.Clock_buffer { insertion } -> insertion
         | Cell.Combinational | Cell.Flip_flop _ -> 0.0);
      tb.res.(i) <- master.Cell.drive_res;
      (* an LCB with no CKO pin, or nothing on it, can adopt no one *)
      tb.net.(i) <-
        (match Design.cell_pin design lcb "CKO" with
        | p -> Design.pin_net_id design p
        | exception Not_found -> -1);
      if tb.net.(i) >= 0 then refresh_box design tb i)
    lcbs;
  tb

(* Manhattan LCB-to-FF branch length *)
let[@inline] branch_len tb i fx fy = Float.abs (tb.x.(i) -. fx) +. Float.abs (tb.y.(i) -. fy)

let[@inline] achieved tb wire i fx fy =
  tb.insertion.(i) +. Wire.delay wire ~r_drive:tb.res.(i) ~len:(branch_len tb i fx fy)

(* [|achieved - desired|] (overshoot weighted 3x: it breaks the
   scheduler's balanced trade-offs) plus the clock-net HPWL growth of
   adopting the FF — how far the net's box must expand to reach it. The
   (rare) shrink of the abandoned net is ignored: a conservative
   penalty. *)
let[@inline] cost tb wire i fx fy desired =
  let diff = achieved tb wire i fx fy -. desired in
  let latency_err = if diff > 0.0 then 3.0 *. diff else -.diff in
  let lx = tb.lx.(i) and ly = tb.ly.(i) and hx = tb.hx.(i) and hy = tb.hy.(i) in
  let grown = Float.max hx fx -. Float.min lx fx +. (Float.max hy fy -. Float.min ly fy) in
  let penalty = grown -. (hx -. lx +. (hy -. ly)) in
  latency_err +. (wirelength_weight *. penalty)

(* [(score, row)] strictly before [(s, r)]: the order of [compare] on
   [(score, lcb id)] pairs, so equal scores go to the lower id *)
let[@inline] before score row s r =
  let c = Float.compare score s in
  c < 0 || (c = 0 && row < r)

let realize timer ~targets =
  let design = Timer.design timer in
  let wire = Library.wire (Design.library design) in
  let tb = table design in
  let n = Array.length tb.lcb in
  (* the best [candidates] rows by (score, row), sorted; [!k] are live *)
  let top_score = Array.make candidates 0.0 and top_row = Array.make candidates 0 in
  let k = ref 0 in
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
        let fx = Design.cell_x design ff and fy = Design.cell_y design ff in
        let current = try Design.lcb_of_ff design ff with Not_found -> -1 in
        let cur_row = ref (-1) in
        let hi = Design.latency_hi design ff in
        let desired = Float.min hi (Design.physical_clock_latency design ff +. target) in
        k := 0;
        for i = 0 to n - 1 do
          let lcb = tb.lcb.(i) and net = tb.net.(i) in
          if lcb = current then cur_row := i;
          (* an LCB with no output net cannot adopt anyone, and never
             move a flop somewhere its Eq. (5) window forbids *)
          if
            net >= 0
            && achieved tb wire i fx fy <= hi +. 1e-6
            && (lcb = current
               || (Design.net_fanout design net < Design.lcb_fanout_limit
                  && tb.adopted.(i) < max_adoptions))
          then begin
            (* rank key: distance between the LCB and the Elmore-converted
               target radius around the FF (Eq. 16) *)
            let dist_target =
              Wire.length_for_delay wire ~r_drive:tb.res.(i) ~target:(desired -. tb.insertion.(i))
            in
            let score = Float.abs (branch_len tb i fx fy -. dist_target) in
            let last = if !k < candidates then !k else candidates - 1 in
            if !k < candidates || before score i top_score.(last) top_row.(last) then begin
              let j = ref last in
              while !j > 0 && before score i top_score.(!j - 1) top_row.(!j - 1) do
                top_score.(!j) <- top_score.(!j - 1);
                top_row.(!j) <- top_row.(!j - 1);
                decr j
              done;
              top_score.(!j) <- score;
              top_row.(!j) <- i;
              if !k < candidates then incr k
            end
          end
        done;
        if !k = 0 then
          (* nothing admissible: keep the current LCB and record the miss *)
          stats.residual_error <- stats.residual_error +. target
        else begin
          (* the first strict minimum in rank order *)
          let best = ref top_row.(0) in
          let best_cost = ref (cost tb wire !best fx fy desired) in
          for j = 1 to !k - 1 do
            let c = cost tb wire top_row.(j) fx fy desired in
            if c < !best_cost then begin
              best := top_row.(j);
              best_cost := c
            end
          done;
          let b = !best in
          if tb.lcb.(b) <> current then begin
            Design.reconnect_ff_to_lcb design ~ff ~lcb:tb.lcb.(b);
            tb.adopted.(b) <- tb.adopted.(b) + 1;
            stats.reconnected <- stats.reconnected + 1;
            (* the FF's clock pin sits at its cell position *)
            grow tb b fx fy;
            if !cur_row >= 0 then refresh_box design tb !cur_row
          end;
          stats.residual_error <-
            stats.residual_error +. Float.abs (achieved tb wire b fx fy -. desired)
        end
      end)
    targets;
  Timer.update_latencies timer !changed;
  stats
