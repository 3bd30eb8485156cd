(* Tests for points, rectangles and HPWL. *)

module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Hpwl = Css_geometry.Hpwl

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let p = Point.make

(* ------------------------------------------------------------------ *)
(* Point *)

let test_manhattan () =
  checkf "axis-aligned" 5.0 (Point.manhattan (p 0. 0.) (p 3. 2.));
  checkf "symmetric" (Point.manhattan (p 1. 7.) (p 4. 2.)) (Point.manhattan (p 4. 2.) (p 1. 7.));
  checkf "zero" 0.0 (Point.manhattan (p 5. 5.) (p 5. 5.))

let test_euclidean () =
  checkf "3-4-5" 5.0 (Point.euclidean (p 0. 0.) (p 3. 4.))

let test_point_arith () =
  let a = Point.add (p 1. 2.) (p 3. 4.) in
  checkf "add x" 4.0 a.Point.x;
  checkf "add y" 6.0 a.Point.y;
  let s = Point.sub (p 5. 5.) (p 2. 1.) in
  checkf "sub x" 3.0 s.Point.x;
  let k = Point.scale 2.0 (p 1.5 (-2.0)) in
  checkf "scale y" (-4.0) k.Point.y;
  checkb "equal with eps" true (Point.equal ~eps:1e-6 (p 1. 1.) (p (1. +. 1e-9) 1.))

(* ------------------------------------------------------------------ *)
(* Rect *)

let test_rect_normalizes () =
  let r = Rect.make ~lx:5.0 ~ly:7.0 ~hx:1.0 ~hy:2.0 in
  checkf "lx" 1.0 r.Rect.lx;
  checkf "hy" 7.0 r.Rect.hy;
  checkf "width" 4.0 (Rect.width r);
  checkf "height" 5.0 (Rect.height r);
  checkf "area" 20.0 (Rect.area r);
  checkf "half perimeter" 9.0 (Rect.half_perimeter r)

let test_rect_of_points () =
  let r = Rect.of_points [ p 1. 5.; p 3. 2.; p 0. 4. ] in
  checkf "lx" 0.0 r.Rect.lx;
  checkf "ly" 2.0 r.Rect.ly;
  checkf "hx" 3.0 r.Rect.hx;
  checkf "hy" 5.0 r.Rect.hy;
  Alcotest.check_raises "empty" (Invalid_argument "Rect.of_points: empty list") (fun () ->
      ignore (Rect.of_points []))

let test_rect_contains_clamp () =
  let r = Rect.make ~lx:0. ~ly:0. ~hx:10. ~hy:10. in
  checkb "inside" true (Rect.contains r (p 5. 5.));
  checkb "boundary" true (Rect.contains r (p 0. 10.));
  checkb "outside" false (Rect.contains r (p 11. 5.));
  let c = Rect.clamp r (p 15. (-3.)) in
  checkf "clamp x" 10.0 c.Point.x;
  checkf "clamp y" 0.0 c.Point.y;
  let inside = Rect.clamp r (p 4. 6.) in
  checkb "clamp of inside point is identity" true (Point.equal inside (p 4. 6.))

let test_rect_expand_center () =
  let r = Rect.make ~lx:0. ~ly:0. ~hx:2. ~hy:2. in
  let r2 = Rect.expand r (p 5. 1.) in
  checkf "expanded hx" 5.0 r2.Rect.hx;
  checkf "unchanged hy" 2.0 r2.Rect.hy;
  let c = Rect.center r in
  checkb "center" true (Point.equal c (p 1. 1.))

(* ------------------------------------------------------------------ *)
(* HPWL *)

let test_hpwl_basics () =
  checkf "empty net" 0.0 (Hpwl.of_points []);
  checkf "single pin" 0.0 (Hpwl.of_points [ p 3. 3. ]);
  checkf "two pins" 7.0 (Hpwl.of_points [ p 0. 0.; p 3. 4. ])

let test_hpwl_increase () =
  checkf "10 pct" 10.0 (Hpwl.increase_pct ~before:100.0 ~after:110.0);
  checkf "zero before" 0.0 (Hpwl.increase_pct ~before:0.0 ~after:5.0);
  checkf "decrease" (-50.0) (Hpwl.increase_pct ~before:10.0 ~after:5.0)

(* HPWL is invariant under pin permutation and monotone under adding
   pins — two properties the evaluator depends on. *)
let point_gen =
  QCheck.Gen.map (fun (x, y) -> p x y) QCheck.Gen.(pair (float_bound_exclusive 1000.) (float_bound_exclusive 1000.))

let points_arb n = QCheck.make QCheck.Gen.(list_size (2 -- n) point_gen)

let prop_hpwl_permutation_invariant =
  QCheck.Test.make ~name:"HPWL invariant under pin order" ~count:200 (points_arb 12) (fun ps ->
      let shuffled = List.rev ps in
      Float.abs (Hpwl.of_points ps -. Hpwl.of_points shuffled) < 1e-9)

let prop_hpwl_monotone =
  QCheck.Test.make ~name:"HPWL monotone in pins" ~count:200
    (QCheck.pair (points_arb 10) (QCheck.make point_gen))
    (fun (ps, extra) -> Hpwl.of_points (extra :: ps) >= Hpwl.of_points ps -. 1e-9)

let prop_manhattan_triangle =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:200
    (QCheck.make QCheck.Gen.(triple point_gen point_gen point_gen))
    (fun (a, b, c) ->
      Point.manhattan a c <= Point.manhattan a b +. Point.manhattan b c +. 1e-9)

let prop_clamp_inside =
  QCheck.Test.make ~name:"clamp lands inside" ~count:200
    (QCheck.make QCheck.Gen.(pair point_gen point_gen))
    (fun (a, b) ->
      let r = Rect.make ~lx:100.0 ~ly:100.0 ~hx:200.0 ~hy:300.0 in
      Rect.contains r (Rect.clamp r a) && Rect.contains r (Rect.clamp r b))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "geometry"
    [
      ( "point",
        [
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "euclidean" `Quick test_euclidean;
          Alcotest.test_case "arithmetic" `Quick test_point_arith;
        ] );
      ( "rect",
        [
          Alcotest.test_case "normalizes" `Quick test_rect_normalizes;
          Alcotest.test_case "of_points" `Quick test_rect_of_points;
          Alcotest.test_case "contains/clamp" `Quick test_rect_contains_clamp;
          Alcotest.test_case "expand/center" `Quick test_rect_expand_center;
        ] );
      ( "hpwl",
        [
          Alcotest.test_case "basics" `Quick test_hpwl_basics;
          Alcotest.test_case "increase pct" `Quick test_hpwl_increase;
        ] );
      qsuite "props"
        [
          prop_hpwl_permutation_invariant;
          prop_hpwl_monotone;
          prop_manhattan_triangle;
          prop_clamp_inside;
        ];
    ]
