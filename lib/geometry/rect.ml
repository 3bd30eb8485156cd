type t = {
  lx : float;
  ly : float;
  hx : float;
  hy : float;
}

let make ~lx ~ly ~hx ~hy =
  { lx = Float.min lx hx; ly = Float.min ly hy; hx = Float.max lx hx; hy = Float.max ly hy }

let of_points = function
  | [] -> invalid_arg "Rect.of_points: empty list"
  | (p : Point.t) :: ps ->
    let r = ref { lx = p.x; ly = p.y; hx = p.x; hy = p.y } in
    let expand (q : Point.t) =
      r :=
        {
          lx = Float.min !r.lx q.x;
          ly = Float.min !r.ly q.y;
          hx = Float.max !r.hx q.x;
          hy = Float.max !r.hy q.y;
        }
    in
    List.iter expand ps;
    !r

let width r = r.hx -. r.lx

let height r = r.hy -. r.ly

let area r = width r *. height r

let half_perimeter r = width r +. height r

let contains r (p : Point.t) = p.x >= r.lx && p.x <= r.hx && p.y >= r.ly && p.y <= r.hy

let clamp r (p : Point.t) =
  Point.make (Float.max r.lx (Float.min r.hx p.x)) (Float.max r.ly (Float.min r.hy p.y))

let expand r (p : Point.t) =
  {
    lx = Float.min r.lx p.x;
    ly = Float.min r.ly p.y;
    hx = Float.max r.hx p.x;
    hy = Float.max r.hy p.y;
  }

let center r = Point.make ((r.lx +. r.hx) /. 2.0) ((r.ly +. r.hy) /. 2.0)

