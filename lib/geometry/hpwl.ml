let of_points = function
  | [] | [ _ ] -> 0.0
  | ps -> Rect.half_perimeter (Rect.of_points ps)

let increase_pct ~before ~after =
  if before = 0.0 then 0.0 else (after -. before) /. before *. 100.0
