(* Unit and property tests for the css_util foundation library. *)

module Vec = Css_util.Vec
module Heap = Css_util.Heap
module Rng = Css_util.Rng
module Stats = Css_util.Stats
module Table = Css_util.Table
module Mark = Css_util.Mark
module Wall_clock = Css_util.Wall_clock

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_empty () =
  let v = Vec.create () in
  checki "length" 0 (Vec.length v);
  checkb "is_empty" true (Vec.is_empty v)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    checki "push returns index" i (Vec.push v (i * 2))
  done;
  checki "length" 100 (Vec.length v);
  checki "get 0" 0 (Vec.get v 0);
  checki "get 99" 198 (Vec.get v 99)

let test_vec_set () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.set v 1 42;
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 42; 3 ] (Vec.to_list v)

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  checki "pop" 3 (Vec.pop v);
  checki "length after pop" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty vector") (fun () ->
      ignore (Vec.pop v))

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index 1 out of bounds [0,1)") (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec.get: index -1 out of bounds [0,1)") (fun () -> ignore (Vec.get v (-1)))

let test_vec_clear () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  checkb "empty after clear" true (Vec.is_empty v);
  ignore (Vec.push v 9);
  checki "usable after clear" 9 (Vec.get v 0)

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  checki "fold sum" 10 (Vec.fold ( + ) 0 v);
  checkb "exists even" true (Vec.exists (fun x -> x mod 2 = 0) v);
  checkb "for_all positive" true (Vec.for_all (fun x -> x > 0) v);
  checkb "for_all even" false (Vec.for_all (fun x -> x mod 2 = 0) v);
  let v2 = Vec.map (fun x -> x * x) v in
  check (Alcotest.list Alcotest.int) "map" [ 1; 4; 9; 16 ] (Vec.to_list v2);
  check (Alcotest.option Alcotest.int) "find_index" (Some 2) (Vec.find_index (fun x -> x = 3) v);
  check (Alcotest.option Alcotest.int) "find_index absent" None (Vec.find_index (fun x -> x = 7) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  checki "iteri count" 4 (List.length !acc)

let test_vec_make () =
  let v = Vec.make 5 7 in
  checki "length" 5 (Vec.length v);
  checkb "all sevens" true (Vec.for_all (fun x -> x = 7) v)

let test_vec_roundtrip () =
  let a = [| 3; 1; 4; 1; 5 |] in
  check (Alcotest.array Alcotest.int) "of_array/to_array" a (Vec.to_array (Vec.of_array a))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_order () =
  let h = Heap.of_list ~cmp:compare [ 5; 3; 8; 1; 9; 2 ] in
  check (Alcotest.list Alcotest.int) "ascending drain" [ 1; 2; 3; 5; 8; 9 ] (Heap.pop_all h)

let test_heap_peek () =
  let h = Heap.of_list ~cmp:compare [ 4; 2 ] in
  checki "peek" 2 (Heap.peek h);
  checki "peek does not remove" 2 (Heap.peek h);
  checki "length" 2 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  checkb "is_empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Heap.pop h));
  Alcotest.check_raises "peek empty" Not_found (fun () -> ignore (Heap.peek h))

let test_heap_custom_cmp () =
  let h = Heap.of_list ~cmp:(fun a b -> compare b a) [ 1; 5; 3 ] in
  check (Alcotest.list Alcotest.int) "max-heap drain" [ 5; 3; 1 ] (Heap.pop_all h)

let test_heap_clear () =
  let h = Heap.of_list ~cmp:compare [ 1; 2 ] in
  Heap.clear h;
  checkb "empty" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.of_list ~cmp:compare xs in
      Heap.pop_all h = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 50 do
    checki "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  checki "copy continues identically" (Rng.int a 1_000_000) (Rng.int b 1_000_000)

let test_rng_bounds () =
  let t = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int t 17 in
    checkb "0 <= x < 17" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "non-positive bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_int_in () =
  let t = Rng.create 5 in
  for _ = 1 to 500 do
    let x = Rng.int_in t (-3) 4 in
    checkb "in range" true (x >= -3 && x <= 4)
  done

let test_rng_float () =
  let t = Rng.create 13 in
  for _ = 1 to 500 do
    let x = Rng.float t 2.5 in
    checkb "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 17 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add s (Rng.gaussian t ~mu:5.0 ~sigma:2.0)
  done;
  checkb "mean near 5" true (Float.abs (Stats.mean s -. 5.0) < 0.1);
  checkb "stddev near 2" true (Float.abs (Stats.stddev s -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let t = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let t = Rng.create 29 in
  let u = Rng.split t in
  let xs = List.init 10 (fun _ -> Rng.int t 100) in
  let ys = List.init 10 (fun _ -> Rng.int u 100) in
  checkb "streams differ" true (xs <> ys)

let prop_rng_choose_member =
  QCheck.Test.make ~name:"choose picks a member" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 20) int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      let t = Rng.create seed in
      let chosen = Rng.choose t a in
      Array.exists (fun y -> y = chosen) a)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  checki "count" 4 (Stats.count s);
  checkf "mean" 2.5 (Stats.mean s);
  checkf "sum" 10.0 (Stats.sum s);
  checkf "min" 1.0 (Stats.min s);
  checkf "max" 4.0 (Stats.max s);
  checkf "stddev" (sqrt (5.0 /. 3.0)) (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  checkb "mean nan" true (Float.is_nan (Stats.mean s));
  checkf "stddev 0" 0.0 (Stats.stddev s)

let test_stats_single () =
  let s = Stats.of_list [ 42.0 ] in
  checkf "mean" 42.0 (Stats.mean s);
  checkf "stddev" 0.0 (Stats.stddev s)

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  checkf "p0" 1.0 (Stats.percentile xs 0.0);
  checkf "p50" 3.0 (Stats.percentile xs 50.0);
  checkf "p100" 5.0 (Stats.percentile xs 100.0);
  checkf "p25" 2.0 (Stats.percentile xs 25.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile [] 50.0))

let test_fequal () =
  checkb "exact" true (Stats.fequal 1.0 1.0);
  checkb "close" true (Stats.fequal ~eps:1e-6 1.0 (1.0 +. 1e-9));
  checkb "far" false (Stats.fequal ~eps:1e-9 1.0 1.1);
  checkb "relative on large" true (Stats.fequal ~eps:1e-9 1e12 (1e12 +. 1.0))

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.of_list xs in
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_stats_welford_matches_naive =
  QCheck.Test.make ~name:"online mean matches naive mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.of_list xs in
      let naive = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer-name"; "2" ];
  let out = Table.render t in
  checkb "mentions longer-name" true (contains out "longer-name");
  checkb "mentions header" true (contains out "value")

let test_table_pads_short_rows () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "only-one" ];
  checkb "renders" true (contains (Table.render t) "only-one")

let test_table_rejects_long_rows () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "too many cells" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_aligns () =
  let t = Table.create [ "n" ] in
  Table.set_aligns t [ Table.Right ];
  Table.add_row t [ "1" ];
  Table.add_sep t;
  Table.add_row t [ "100" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  checkb "right-aligned 1" true (List.exists (fun l -> l = "|   1 |") lines)

let test_table_align_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad align count"
    (Invalid_argument "Table.set_aligns: column count mismatch") (fun () ->
      Table.set_aligns t [ Table.Left ])

(* ------------------------------------------------------------------ *)
(* Mark *)

let test_mark_basic () =
  let m = Mark.create 10 in
  checkb "initially unmarked" false (Mark.is_marked m 3);
  Mark.mark m 3;
  checkb "marked" true (Mark.is_marked m 3);
  checkb "others unmarked" false (Mark.is_marked m 4)

let test_mark_reset () =
  let m = Mark.create 4 in
  Mark.mark m 0;
  Mark.mark m 1;
  Mark.reset m;
  checkb "cleared" false (Mark.is_marked m 0 || Mark.is_marked m 1);
  Mark.mark m 2;
  checkb "markable after reset" true (Mark.is_marked m 2)

let test_mark_ensure () =
  let m = Mark.create 2 in
  Mark.mark m 1;
  Mark.ensure m 100;
  checkb "old marks survive growth" true (Mark.is_marked m 1);
  Mark.mark m 99;
  checkb "new id markable" true (Mark.is_marked m 99)

(* ------------------------------------------------------------------ *)
(* Wall_clock *)

let test_wall_clock_accumulates () =
  let c = Wall_clock.create () in
  checkf "initially zero" 0.0 (Wall_clock.elapsed c);
  Wall_clock.start c;
  Wall_clock.stop c;
  checkb "non-negative" true (Wall_clock.elapsed c >= 0.0);
  Alcotest.check_raises "stop unstarted" (Invalid_argument "Wall_clock.stop: not started")
    (fun () -> Wall_clock.stop c)

let test_wall_clock_time () =
  let x, dt = Wall_clock.time (fun () -> 42) in
  checki "result" 42 x;
  checkb "elapsed >= 0" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* Budget *)

module Budget = Css_util.Budget
module Obs = Css_util.Obs
module Rusage = Css_util.Rusage

let counter_value obs name =
  match List.assoc_opt name (Obs.counters obs) with Some v -> v | None -> 0

let test_budget_validation () =
  let invalid limits =
    match Budget.create limits with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected Invalid_argument"
  in
  invalid { Budget.no_limits with Budget.soft_frac = 0.0 };
  invalid { Budget.no_limits with Budget.soft_frac = 1.5 };
  invalid { Budget.no_limits with Budget.wall_seconds = Some (-1.0) };
  invalid { Budget.no_limits with Budget.rss_bytes = Some 0 };
  ignore (Budget.create Budget.no_limits)

let test_budget_no_limits_under () =
  let b = Budget.create Budget.no_limits in
  checkb "under" true (Budget.poll b = Budget.Under);
  checkb "not hard" true (not (Budget.hard b))

let test_budget_soft_every_poll_trips_once () =
  (* a microscopic soft fraction of a huge wall limit: in the soft
     region from the first poll on, but the Obs trip records only the
     first crossing *)
  let obs = Obs.create () in
  let b =
    Budget.create ~obs
      { Budget.no_limits with Budget.wall_seconds = Some 3600.0; Budget.soft_frac = 1e-9 }
  in
  Unix.sleepf 0.002;
  checkb "soft wall (1st)" true (Budget.poll b = Budget.Soft "wall");
  checkb "soft wall (2nd)" true (Budget.poll b = Budget.Soft "wall");
  checkb "soft wall (3rd)" true (Budget.poll b = Budget.Soft "wall");
  checki "one soft trip" 1 (counter_value obs "budget.soft_trips");
  checki "three polls" 3 (counter_value obs "budget.polls");
  checkb "soft is not hard" true (not (Budget.hard b))

let test_budget_hard_sticky () =
  let obs = Obs.create () in
  let b =
    Budget.create ~obs { Budget.no_limits with Budget.wall_seconds = Some 1e-6 }
  in
  Unix.sleepf 0.002;
  checkb "hard wall" true (Budget.poll b = Budget.Hard "wall");
  checkb "hard sticky" true (Budget.poll b = Budget.Hard "wall");
  checkb "hard flag" true (Budget.hard b);
  checki "one hard trip" 1 (counter_value obs "budget.hard_trips")

let test_budget_wall_wins_over_rss () =
  (* both resources over their (absurd) limits: the reason string names
     the wall clock, the budget the user set explicitly *)
  let b =
    Budget.create
      { Budget.no_limits with Budget.wall_seconds = Some 1e-6; Budget.rss_bytes = Some 1 }
  in
  Unix.sleepf 0.002;
  if Rusage.current_rss_bytes () > 0 then
    checkb "wall named" true (Budget.poll b = Budget.Hard "wall")

let test_budget_rss_soft () =
  (* an RSS limit well above current use, with a soft fraction well
     below it: deterministic Soft "rss" wherever procfs is readable *)
  let rss = Rusage.current_rss_bytes () in
  if rss > 0 then begin
    let b =
      Budget.create
        { Budget.no_limits with Budget.rss_bytes = Some (rss * 10); Budget.soft_frac = 0.05 }
    in
    checkb "soft rss" true (Budget.poll b = Budget.Soft "rss")
  end

let test_budget_elapsed_and_remaining () =
  let b = Budget.create { Budget.no_limits with Budget.wall_seconds = Some 3600.0 } in
  checkb "elapsed >= 0" true (Budget.elapsed_seconds b >= 0.0);
  (* an hour of budget is far from spent: the wall limit still leaves
     time, so the poll reports no pressure *)
  checkb "time remaining" true (Budget.poll b = Budget.Under)

(* The published FNV-1a 64 test vectors: checkpoint hashes on disk
   depend on these exact values. *)
let test_fnv_vectors () =
  List.iter
    (fun (s, h) ->
      Alcotest.check Alcotest.string (Printf.sprintf "fnv1a64 %S" s) h
        (Printf.sprintf "%016Lx" (Css_util.Fnv.of_string s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

(* [of_string] agrees with folding the bytes one by one. *)
let test_fnv_matches_mix_byte () =
  let s = String.init 1000 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let folded = ref Css_util.Fnv.basis in
  String.iter (fun c -> folded := Css_util.Fnv.mix_byte !folded (Char.code c)) s;
  checkb "of_string = fold mix_byte" true (Int64.equal !folded (Css_util.Fnv.of_string s))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          Alcotest.test_case "empty" `Quick test_vec_empty;
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "clear" `Quick test_vec_clear;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "make" `Quick test_vec_make;
          Alcotest.test_case "roundtrip" `Quick test_vec_roundtrip;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "custom cmp" `Quick test_heap_custom_cmp;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      qsuite "heap-props" [ prop_heap_sorts ];
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float" `Quick test_rng_float;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
        ] );
      qsuite "rng-props" [ prop_rng_choose_member ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "fequal" `Quick test_fequal;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds; prop_stats_welford_matches_naive ];
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads short rows" `Quick test_table_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_table_rejects_long_rows;
          Alcotest.test_case "aligns" `Quick test_table_aligns;
          Alcotest.test_case "align mismatch" `Quick test_table_align_mismatch;
        ] );
      ( "mark",
        [
          Alcotest.test_case "basic" `Quick test_mark_basic;
          Alcotest.test_case "reset" `Quick test_mark_reset;
          Alcotest.test_case "ensure" `Quick test_mark_ensure;
        ] );
      ( "wall_clock",
        [
          Alcotest.test_case "accumulates" `Quick test_wall_clock_accumulates;
          Alcotest.test_case "time" `Quick test_wall_clock_time;
        ] );
      ( "budget",
        [
          Alcotest.test_case "validation" `Quick test_budget_validation;
          Alcotest.test_case "no limits is under" `Quick test_budget_no_limits_under;
          Alcotest.test_case "soft every poll, trips once" `Quick
            test_budget_soft_every_poll_trips_once;
          Alcotest.test_case "hard is sticky" `Quick test_budget_hard_sticky;
          Alcotest.test_case "wall wins over rss" `Quick test_budget_wall_wins_over_rss;
          Alcotest.test_case "rss soft" `Quick test_budget_rss_soft;
          Alcotest.test_case "elapsed and remaining" `Quick test_budget_elapsed_and_remaining;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "published vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "of_string folds mix_byte" `Quick test_fnv_matches_mix_byte;
        ] );
    ]
