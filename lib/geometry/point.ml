type t = {
  x : float;
  y : float;
}

let make x y = { x; y }

let origin = { x = 0.0; y = 0.0 }

let manhattan a b = Float.abs (a.x -. b.x) +. Float.abs (a.y -. b.y)

let euclidean a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let add a b = { x = a.x +. b.x; y = a.y +. b.y }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y }

let scale k p = { x = k *. p.x; y = k *. p.y }

let equal ?eps a b =
  Css_util.Stats.fequal ?eps a.x b.x && Css_util.Stats.fequal ?eps a.y b.y

