type t = {
  r_unit : float;
  c_unit : float;
}

let default = { r_unit = 0.0002; c_unit = 0.03 }

let make ~r_unit ~c_unit =
  if r_unit <= 0.0 || c_unit <= 0.0 then invalid_arg "Wire.make: parameters must be positive";
  { r_unit; c_unit }

(* inlined: the clock-latency read on the timer's hot path calls it *)
let[@inline] delay t ~r_drive ~len =
  if len <= 0.0 then 0.0
  else (r_drive *. t.c_unit *. len) +. (t.r_unit *. t.c_unit *. len *. len /. 2.0)

let cap t ~len = if len <= 0.0 then 0.0 else t.c_unit *. len

(* Solve r_drive*c*len + r*c*len^2/2 = target for len >= 0. Inlined:
   reconnection ranks every LCB by it, and a float crossing a call is
   boxed. *)
let[@inline] length_for_delay t ~r_drive ~target =
  if target <= 0.0 then 0.0
  else begin
    let a = t.r_unit *. t.c_unit /. 2.0 in
    let b = r_drive *. t.c_unit in
    if a = 0.0 then target /. b
    else begin
      let disc = (b *. b) +. (4.0 *. a *. target) in
      (-.b +. sqrt disc) /. (2.0 *. a)
    end
  end
