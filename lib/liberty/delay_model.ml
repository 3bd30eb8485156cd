type t =
  | Linear of {
      intrinsic : float;
      resistance : float;
      slew_impact : float;
    }
  | Lut of {
      slew_axis : float array;
      load_axis : float array;
      delays : float array array;
    }

(* Locate [x] on [axis]: index [i] and fraction [f] such that the value lies
   between breakpoints [i] and [i+1]; saturates at the edges. Split into
   two tuple-free halves, all inlined: the timer evaluates a LUT arc on
   every relaxation, and a returned pair or float would be allocated. *)
let[@inline] locate_index (axis : float array) (x : float) =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then 0
  else if x >= axis.(n - 1) then n - 2
  else begin
    let i = ref 0 in
    while not (x < axis.(!i + 1)) do
      incr i
    done;
    !i
  end

let[@inline] locate_fraction (axis : float array) (x : float) i =
  let n = Array.length axis in
  if n = 1 || x <= axis.(0) then 0.0
  else if x >= axis.(n - 1) then 1.0
  else begin
    let span = axis.(i + 1) -. axis.(i) in
    if span = 0.0 then 0.0 else (x -. axis.(i)) /. span
  end

let[@inline] at (delays : float array array) a b =
  let a = min a (Array.length delays - 1) in
  let b = min b (Array.length delays.(a) - 1) in
  delays.(a).(b)

let[@inline] lut_eval slew_axis load_axis delays ~slew ~load =
  let i = locate_index slew_axis slew in
  let fi = locate_fraction slew_axis slew i in
  let j = locate_index load_axis load in
  let fj = locate_fraction load_axis load j in
  let v00 = at delays i j and v01 = at delays i (j + 1) in
  let v10 = at delays (i + 1) j and v11 = at delays (i + 1) (j + 1) in
  let v0 = v00 +. (fj *. (v01 -. v00)) in
  let v1 = v10 +. (fj *. (v11 -. v10)) in
  v0 +. (fi *. (v1 -. v0))

let[@inline] delay t ~slew ~load =
  match t with
  | Linear { intrinsic; resistance; slew_impact } ->
    intrinsic +. (resistance *. load) +. (slew_impact *. slew)
  | Lut { slew_axis; load_axis; delays } -> lut_eval slew_axis load_axis delays ~slew ~load

let output_slew t ~slew ~load =
  let d = delay t ~slew ~load in
  Float.max 2.0 (0.4 *. d)

let linear ~intrinsic ~resistance ?(slew_impact = 0.05) () =
  Linear { intrinsic; resistance; slew_impact }

let strictly_ascending a =
  let ok = ref (Array.length a > 0) in
  for i = 0 to Array.length a - 2 do
    if a.(i) >= a.(i + 1) then ok := false
  done;
  !ok

let lut ~slew_axis ~load_axis ~delays =
  if not (strictly_ascending slew_axis) then
    invalid_arg "Delay_model.lut: slew axis must be non-empty and strictly ascending";
  if not (strictly_ascending load_axis) then
    invalid_arg "Delay_model.lut: load axis must be non-empty and strictly ascending";
  if
    Array.length delays <> Array.length slew_axis
    || Array.exists (fun row -> Array.length row <> Array.length load_axis) delays
  then invalid_arg "Delay_model.lut: value matrix does not match the axes";
  Lut { slew_axis; load_axis; delays }
