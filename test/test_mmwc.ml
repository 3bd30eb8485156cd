(* Tests for strongly connected components and the minimum/maximum mean
   cycle solvers, including cross-validation of Howard against Karp on
   random graphs. *)

module Digraph = Css_mmwc.Digraph
module Scc = Css_mmwc.Scc
module Karp = Css_mmwc.Karp
module Howard = Css_mmwc.Howard
module Rng = Css_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Digraph *)

let test_digraph_basics () =
  let g = Digraph.make ~n:3 [ (0, 1, 1.0); (1, 2, 2.0) ] in
  checki "vertices" 3 (Digraph.num_vertices g);
  checki "edges" 2 (Digraph.num_edges g);
  checki "edge list" 2 (List.length (Digraph.edges g));
  Alcotest.check_raises "range check"
    (Invalid_argument "Digraph.make: edge (0,5) out of range [0,3)") (fun () ->
      ignore (Digraph.make ~n:3 [ (0, 5, 1.0) ]))

let test_digraph_induced () =
  let g = Digraph.make ~n:4 [ (0, 1, 1.0); (1, 2, 2.0); (2, 0, 3.0); (3, 0, 4.0) ] in
  let sub, old_of_new = Digraph.induced g [ 0; 1; 2 ] in
  checki "sub vertices" 3 (Digraph.num_vertices sub);
  checki "sub edges (3 inside the triangle)" 3 (Digraph.num_edges sub);
  checki "mapping" 0 old_of_new.(0)

(* ------------------------------------------------------------------ *)
(* SCC *)

let test_scc_dag () =
  let g = Digraph.make ~n:4 [ (0, 1, 0.); (1, 2, 0.); (2, 3, 0.) ] in
  let _, k = Scc.components g in
  checki "all singleton" 4 k;
  checki "no nontrivial" 0 (List.length (Scc.nontrivial g))

let test_scc_cycle () =
  let g = Digraph.make ~n:4 [ (0, 1, 0.); (1, 2, 0.); (2, 0, 0.); (3, 0, 0.) ] in
  let comp, k = Scc.components g in
  checki "two components" 2 k;
  checkb "triangle together" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  checkb "3 apart" true (comp.(3) <> comp.(0));
  match Scc.nontrivial g with
  | [ members ] -> checki "triangle size" 3 (List.length members)
  | _ -> Alcotest.fail "expected one nontrivial SCC"

let test_scc_self_loop () =
  let g = Digraph.make ~n:2 [ (0, 0, -1.0); (0, 1, 0.) ] in
  match Scc.nontrivial g with
  | [ [ v ] ] -> checki "self loop vertex" 0 v
  | _ -> Alcotest.fail "expected the self-loop singleton"

let test_scc_two_cycles () =
  let g =
    Digraph.make ~n:6
      [ (0, 1, 0.); (1, 0, 0.); (2, 3, 0.); (3, 4, 0.); (4, 2, 0.); (5, 0, 0.) ]
  in
  checki "two nontrivial" 2 (List.length (Scc.nontrivial g))

let test_scc_deep_chain_no_overflow () =
  (* iterative Tarjan must survive a 100k-vertex path *)
  let n = 100_000 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1, 0.0)) in
  let g = Digraph.make ~n edges in
  let _, k = Scc.components g in
  checki "all singletons" n k

(* ------------------------------------------------------------------ *)
(* Mean cycles *)

let cycle_mean_of g cyc =
  let arr = Array.of_list cyc in
  let k = Array.length arr in
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    let u = arr.(i) and v = arr.((i + 1) mod k) in
    let best = ref infinity in
    Digraph.iter_out g u (fun dst w -> if dst = v && w < !best then best := w);
    total := !total +. !best
  done;
  !total /. float_of_int k

let test_karp_acyclic () =
  let g = Digraph.make ~n:3 [ (0, 1, -5.0); (1, 2, -3.0) ] in
  checkb "no cycle" true (Karp.min_mean_cycle g = None)

let test_karp_triangle () =
  let g = Digraph.make ~n:3 [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  match Karp.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "mean" (-3.0) mean;
    checki "cycle length" 3 (List.length cyc);
    checkf 1e-9 "returned cycle achieves the mean" (-3.0) (cycle_mean_of g cyc)

let test_karp_picks_worst_cycle () =
  (* two disjoint cycles: {0,1} mean -1, {2,3} mean -6 *)
  let g =
    Digraph.make ~n:4 [ (0, 1, -1.0); (1, 0, -1.0); (2, 3, -5.0); (3, 2, -7.0) ]
  in
  match Karp.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "worst mean" (-6.0) mean;
    checkb "cycle is {2,3}" true (List.sort compare cyc = [ 2; 3 ])

let test_karp_max () =
  let g = Digraph.make ~n:2 [ (0, 1, 3.0); (1, 0, 5.0) ] in
  match Karp.max_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, _) -> checkf 1e-9 "max mean" 4.0 mean

let random_graph rng n m =
  let edges =
    List.init m (fun _ ->
        (Rng.int rng n, Rng.int rng n, Rng.float_in rng (-10.0) 10.0))
  in
  (* drop self loops: both solvers treat them differently from the
     sequential-graph convention, so compare without them *)
  let edges = List.filter (fun (u, v, _) -> u <> v) edges in
  Digraph.make ~n edges

let test_howard_triangle () =
  let g = Digraph.make ~n:3 [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  match Howard.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "mean" (-3.0) mean;
    checkf 1e-9 "cycle achieves mean" (-3.0) (cycle_mean_of g cyc)

let test_howard_acyclic () =
  let g = Digraph.make ~n:3 [ (0, 1, 1.0); (1, 2, -10.0) ] in
  checkb "no cycle" true (Howard.min_mean_cycle g = None)

let test_howard_picks_worst () =
  let g =
    Digraph.make ~n:4 [ (0, 1, -1.0); (1, 0, -1.0); (2, 3, -5.0); (3, 2, -7.0) ]
  in
  match Howard.min_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, cyc) ->
    checkf 1e-9 "worst mean" (-6.0) mean;
    checkb "cycle is {2,3}" true (List.sort compare cyc = [ 2; 3 ])

let test_howard_agrees_with_karp () =
  let rng = Rng.create 424242 in
  for case = 1 to 60 do
    let n = Rng.int_in rng 3 14 in
    let m = Rng.int_in rng n (4 * n) in
    let g = random_graph rng n m in
    match (Karp.min_mean_cycle g, Howard.min_mean_cycle g) with
    | None, None -> ()
    | Some (a, _), Some (b, cyc_b) ->
      checkf 1e-5 (Printf.sprintf "case %d: howard = karp" case) a b;
      checkf 1e-5
        (Printf.sprintf "case %d: howard cycle mean" case)
        b (cycle_mean_of g cyc_b)
    | Some _, None -> Alcotest.fail (Printf.sprintf "case %d: howard missed a cycle" case)
    | None, Some _ -> Alcotest.fail (Printf.sprintf "case %d: howard found a phantom" case)
  done

let test_howard_max_variant () =
  let g = Digraph.make ~n:2 [ (0, 1, 3.0); (1, 0, 5.0) ] in
  match Howard.max_mean_cycle g with
  | None -> Alcotest.fail "cycle expected"
  | Some (mean, _) -> checkf 1e-9 "max mean" 4.0 mean

let test_mean_is_lower_bound () =
  (* no cycle in the graph has a mean below the reported minimum *)
  let rng = Rng.create 777 in
  for _ = 1 to 20 do
    let g = random_graph rng 8 20 in
    match Karp.min_mean_cycle g with
    | None -> ()
    | Some (mean, _) ->
      (* check all 2- and 3-cycles by brute force *)
      let n = Digraph.num_vertices g in
      let w = Array.make_matrix n n infinity in
      List.iter (fun (u, v, x) -> if x < w.(u).(v) then w.(u).(v) <- x) (Digraph.edges g);
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if w.(a).(b) < infinity && w.(b).(a) < infinity && a <> b then
            checkb "2-cycle bound" true ((w.(a).(b) +. w.(b).(a)) /. 2.0 >= mean -. 1e-6);
          for c = 0 to n - 1 do
            if
              a <> b && b <> c && a <> c && w.(a).(b) < infinity && w.(b).(c) < infinity
              && w.(c).(a) < infinity
            then
              checkb "3-cycle bound" true
                ((w.(a).(b) +. w.(b).(c) +. w.(c).(a)) /. 3.0 >= mean -. 1e-6)
          done
        done
      done
  done

let () =
  Alcotest.run "mmwc"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "induced" `Quick test_digraph_induced;
        ] );
      ( "scc",
        [
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "two cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "deep chain (stack safety)" `Quick test_scc_deep_chain_no_overflow;
        ] );
      ( "mean-cycle",
        [
          Alcotest.test_case "karp: acyclic" `Quick test_karp_acyclic;
          Alcotest.test_case "karp: triangle" `Quick test_karp_triangle;
          Alcotest.test_case "karp: picks worst" `Quick test_karp_picks_worst_cycle;
          Alcotest.test_case "karp: max variant" `Quick test_karp_max;
          Alcotest.test_case "howard: triangle" `Quick test_howard_triangle;
          Alcotest.test_case "howard: acyclic" `Quick test_howard_acyclic;
          Alcotest.test_case "howard: picks worst" `Quick test_howard_picks_worst;
          Alcotest.test_case "howard = karp on random graphs" `Quick test_howard_agrees_with_karp;
          Alcotest.test_case "howard: max variant" `Quick test_howard_max_variant;
          Alcotest.test_case "mean is a lower bound" `Quick test_mean_is_lower_bound;
        ] );
    ]
