(* Tests for the core scheduling machinery: bounds, non-negative
   arborescence construction, the two-pass traversal (reproducing the
   paper's Fig. 6 numbers exactly), cycle handling (Eq. 9), and
   Algorithm 1 end to end. *)

module Design = Css_netlist.Design
module Graph = Css_sta.Graph
module Timer = Css_sta.Timer
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Bounds = Css_core.Bounds
module Arborescence = Css_core.Arborescence
module Two_pass = Css_core.Two_pass
module Cycle = Css_core.Cycle
module Scheduler = Css_core.Scheduler
module Engine = Css_core.Engine
module Extract = Css_seqgraph.Extract
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

(* Build a synthetic packed edge view without a design: only
   src/dst/weight matter for the construction and traversal
   algorithms. *)
let synth_edges specs = Seq_graph.view_of_list specs

(* One-shot forms of the scheduler's reusable solvers: every call packs
   its edges into a fresh CSR and runs on fresh workspaces. *)
let csr_of_view ~n (vw : Seq_graph.view) =
  let g = Css_mmwc.Csr.create () in
  Css_mmwc.Csr.fill g ~n ~m:vw.Seq_graph.v_n ~src:vw.Seq_graph.v_src ~dst:vw.Seq_graph.v_dst
    ~w:vw.Seq_graph.v_w;
  g

let arborescence ~n ~fixed ~out_weight edges =
  let t = Arborescence.create ~n in
  Arborescence.build_into t ~fixed ~out_weight:(Array.init n out_weight) edges;
  t

let two_pass ~n ~edges ~arb ~fixed ~margin ~hard_cap =
  Two_pass.run (Two_pass.workspace ~n) (csr_of_view ~n edges) ~arb ~fixed
    ~margin:(Array.init n margin) ~hard_cap:(Array.init n hard_cap)

let find_cycle ~n ~edges ~fixed ~hard_cap =
  Cycle.schedule (Cycle.workspace ~n) (csr_of_view ~n edges) ~fixed ~hard_cap

(* ------------------------------------------------------------------ *)
(* Arborescence *)

let no_fixed _ = false

let test_arborescence_smallest_edge_wins () =
  (* two incoming edges; the smaller-weight one becomes the parent *)
  let edges = synth_edges [ (0, 2, -5.0); (1, 2, -9.0) ] in
  let arb = arborescence ~n:3 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges in
  checki "parent is 1" 1 (Arborescence.parent arb 2);
  checkf 1e-9 "parent weight" (-9.0) (Arborescence.parent_weight arb 2);
  checkb "0 and 1 are roots" true (Arborescence.is_root arb 0 && Arborescence.is_root arb 1)

let test_arborescence_alpha_beta () =
  let edges = synth_edges [ (0, 1, -5.0); (1, 2, -3.0) ] in
  let arb = arborescence ~n:3 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges in
  checkf 1e-9 "alpha root" 0.0 (Arborescence.alpha arb 0);
  checki "beta root" 0 (Arborescence.beta arb 0);
  checkf 1e-9 "alpha v1" (-5.0) (Arborescence.alpha arb 1);
  checki "beta v1" 1 (Arborescence.beta arb 1);
  checkf 1e-9 "alpha v2" (-8.0) (Arborescence.alpha arb 2);
  checki "beta v2" 2 (Arborescence.beta arb 2);
  Alcotest.check (Alcotest.list Alcotest.int) "children of 1" [ 2 ] (Arborescence.children arb 1)

let test_arborescence_nondecreasing_rule () =
  (* edge into v is rejected when its weight is not below v's out-weight *)
  let edges = synth_edges [ (0, 1, -2.0) ] in
  let out_weight v = if v = 1 then -4.0 else infinity in
  let arb = arborescence ~n:2 ~fixed:no_fixed ~out_weight edges in
  checkb "rejected: v stays root" true (Arborescence.is_root arb 1)

let test_arborescence_fixed_never_attached () =
  let edges = synth_edges [ (0, 1, -5.0) ] in
  let arb =
    arborescence ~n:2 ~fixed:(fun v -> v = 1) ~out_weight:(fun _ -> infinity) edges
  in
  checkb "fixed vertex stays root" true (Arborescence.is_root arb 1)

let test_arborescence_cycle_edge_skipped () =
  (* a cycle-closing edge is skipped and counted, not crashed on *)
  let edges = synth_edges [ (0, 1, -5.0); (1, 0, -4.0) ] in
  let arb = arborescence ~n:2 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges in
  checki "one cycle edge skipped" 1 (Arborescence.skipped_cycle_edges arb);
  checkb "0 is root" true (Arborescence.is_root arb 0)

let test_arborescence_self_loop_ignored () =
  let edges = synth_edges [ (0, 0, -5.0) ] in
  let arb = arborescence ~n:1 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges in
  checkb "self loop ignored" true (Arborescence.is_root arb 0)

let test_arborescence_weights_nondecreasing_to_leaf () =
  (* with the w < w^out rule, tree-path weights never decrease *)
  let rng = Css_util.Rng.create 42 in
  for _ = 1 to 20 do
    let n = 12 in
    let specs =
      List.init 30 (fun _ ->
          (Css_util.Rng.int rng n, Css_util.Rng.int rng n, Css_util.Rng.float_in rng (-10.0) 0.0))
      |> List.filter (fun (u, v, _) -> u <> v)
    in
    let edges = synth_edges specs in
    (* Eq. (6): the vertex out-weight is the minimum outgoing edge weight *)
    let out_weight v =
      List.fold_left
        (fun acc (u, _, w) -> if u = v then Float.min acc w else acc)
        infinity specs
    in
    let arb = arborescence ~n ~fixed:no_fixed ~out_weight edges in
    for v = 0 to n - 1 do
      if not (Arborescence.is_root arb v) then begin
        let p = Arborescence.parent arb v in
        if not (Arborescence.is_root arb p) then
          checkb "non-decreasing root-to-leaf" true
            (Arborescence.parent_weight arb p <= Arborescence.parent_weight arb v +. 1e-9)
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Two-pass traversal: the paper's Fig. 6 numbers *)

(* Vertices: r=0, e=1, c=2, f=3, a=4, b=5.
   Tree edges r->e (-5), e->c (-3), e->f (-1), a->b (-3); cross edge
   b->c (-3). Margins chosen so that l^max_c = 6 and l^max_f = 2 as in the
   figure; then the paper's published values follow:
     w^avg_e via c = ((-5)+(-3)+6)/2 = -1   (the figure's example)
     w^avg_e via f = ((-5)+(-1)+2)/2 = -2
     l^max_e = 1*(-1) + 5 = 4
     l_b = min(l^max_b, l_a - w_ab) = +3    ("vertex b requires only +3") *)
let fig6 () =
  (* the cross edge b->c gets a slightly larger weight so the ascending
     construction deterministically attaches c under e *)
  let specs = [ (0, 1, -5.0); (1, 2, -3.0); (1, 3, -1.0); (4, 5, -3.0); (5, 2, -2.9) ] in
  let edges = synth_edges specs in
  let margin = function
    | 1 -> -3.0 (* e's worst outgoing, Eq. 6 *)
    | 2 -> 5.0
    | 3 -> 0.0
    | 5 -> 20.0
    | _ -> 0.0
  in
  let arb = arborescence ~n:6 ~fixed:no_fixed ~out_weight:margin edges in
  let tp =
    two_pass ~n:6 ~edges ~arb ~fixed:no_fixed ~margin ~hard_cap:(fun _ -> 100.0)
  in
  (arb, tp)

let test_fig6_structure () =
  let arb, _ = fig6 () in
  checki "e under r" 0 (Arborescence.parent arb 1);
  checki "c under e" 1 (Arborescence.parent arb 2);
  checki "f under e" 1 (Arborescence.parent arb 3);
  checki "b under a" 4 (Arborescence.parent arb 5);
  checkb "cross edge not in tree" true (Arborescence.is_root arb 4)

let test_fig6_pass1 () =
  let _, tp = fig6 () in
  checkf 1e-9 "l^max_c = 6" 6.0 tp.Two_pass.l_max.(2);
  checkf 1e-9 "l^max_f = 2" 2.0 tp.Two_pass.l_max.(3);
  checkf 1e-9 "w^avg_e = -1 (paper's example)" (-1.0) tp.Two_pass.w_avg.(1);
  checkf 1e-9 "l^max_e = 4" 4.0 tp.Two_pass.l_max.(1)

let test_fig6_pass2 () =
  let _, tp = fig6 () in
  checkf 1e-9 "l_e" 4.0 tp.Two_pass.l.(1);
  checkf 1e-9 "l_c" 6.0 tp.Two_pass.l.(2);
  checkf 1e-9 "l_f" 2.0 tp.Two_pass.l.(3);
  checkf 1e-9 "l_b = +3 (paper)" 3.0 tp.Two_pass.l.(5);
  checkf 1e-9 "roots stay 0" 0.0 tp.Two_pass.l.(0)

let test_two_pass_nonnegative_and_capped () =
  let rng = Css_util.Rng.create 11 in
  for _ = 1 to 30 do
    let n = 10 in
    let specs =
      List.init 20 (fun _ ->
          (Css_util.Rng.int rng n, Css_util.Rng.int rng n, Css_util.Rng.float_in rng (-20.0) (-0.1)))
      |> List.filter (fun (u, v, _) -> u < v)
      (* u < v keeps it a DAG *)
    in
    let edges = synth_edges specs in
    let margin v = Css_util.Rng.float_in rng (-5.0) 50.0 +. float_of_int v *. 0.0 in
    let cap _ = 15.0 in
    let out_weight v =
      List.fold_left (fun acc (u, _, w) -> if u = v then Float.min acc w else acc) infinity specs
    in
    let arb = arborescence ~n ~fixed:no_fixed ~out_weight edges in
    let tp = two_pass ~n ~edges ~arb ~fixed:no_fixed ~margin ~hard_cap:cap in
    Array.iter (fun l -> checkb "non-negative" true (l >= 0.0)) tp.Two_pass.l;
    Array.iteri
      (fun v l -> checkb "capped" true (l <= cap v +. 1e-9))
      tp.Two_pass.l
  done

let test_two_pass_zero_targets_nothing_beyond_need () =
  (* pass 2 raises just enough: a single edge chain stops at exactly -w *)
  let edges = synth_edges [ (0, 1, -7.0) ] in
  let arb =
    arborescence ~n:2 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges
  in
  let tp =
    two_pass ~n:2 ~edges ~arb ~fixed:no_fixed
      ~margin:(fun _ -> infinity)
      ~hard_cap:(fun _ -> infinity)
  in
  checkf 1e-9 "exactly enough" 7.0 tp.Two_pass.l.(1)

let test_two_pass_rejects_cycles () =
  let edges = synth_edges [ (0, 1, -1.0); (1, 0, -1.0) ] in
  let arb = arborescence ~n:2 ~fixed:no_fixed ~out_weight:(fun _ -> infinity) edges in
  Alcotest.check_raises "cycle detected"
    (Invalid_argument "Two_pass.run: essential edges contain a cycle") (fun () ->
      ignore
        (two_pass ~n:2 ~edges ~arb ~fixed:no_fixed
           ~margin:(fun _ -> 0.0)
           ~hard_cap:(fun _ -> 0.0)))

(* The scheduler's reusable forms, driven through one set of workspaces
   across many random edge sets, must agree with the same solvers on
   fresh workspaces: no scratch from an earlier call may leak into a
   later one. *)
let prop_workspace_reuse_matches_fresh =
  QCheck.Test.make ~name:"workspace reuse = fresh" ~count:20 (QCheck.int_bound 1_000_000)
    (fun seed ->
      let rng = Css_util.Rng.create seed in
      let n = 14 in
      let csr = Css_mmwc.Csr.create () in
      let cyc_ws = Cycle.workspace ~n in
      let arb_ws = Arborescence.create ~n in
      let tp_ws = Two_pass.workspace ~n in
      let margins = Array.init n (fun _ -> Css_util.Rng.float_in rng (-5.0) 30.0) in
      let caps = Array.init n (fun _ -> Css_util.Rng.float_in rng 0.0 25.0) in
      let fixed_set = Array.init n (fun _ -> Css_util.Rng.int rng 8 = 0) in
      let fixed v = fixed_set.(v) in
      let ok = ref true in
      let reuse = ref None in
      for _ = 1 to 12 do
        (* sparse random edge sets; a third of them acyclic by construction *)
        let dag = Css_util.Rng.int rng 3 = 0 in
        let specs =
          List.init (Css_util.Rng.int rng 18) (fun _ ->
              (Css_util.Rng.int rng n, Css_util.Rng.int rng n, Css_util.Rng.float_in rng (-20.0) (-0.1)))
          |> List.filter (fun (u, v, _) -> (not dag) || u < v)
          |> List.sort_uniq (fun (u, v, _) (u', v', _) -> compare (u, v) (u', v'))
        in
        let edges = synth_edges specs in
        (* pack into the reused view columns the way the scheduler does *)
        let view =
          let m = edges.Seq_graph.v_n in
          match !reuse with
          | Some (v : Seq_graph.view) when Array.length v.Seq_graph.v_src >= m ->
            Array.blit edges.Seq_graph.v_src 0 v.Seq_graph.v_src 0 m;
            Array.blit edges.Seq_graph.v_dst 0 v.Seq_graph.v_dst 0 m;
            Array.blit edges.Seq_graph.v_w 0 v.Seq_graph.v_w 0 m;
            { v with Seq_graph.v_n = m }
          | _ -> edges
        in
        reuse := Some view;
        Css_mmwc.Csr.fill csr ~n ~m:view.Seq_graph.v_n ~src:view.Seq_graph.v_src
          ~dst:view.Seq_graph.v_dst ~w:view.Seq_graph.v_w;
        let hard_cap v = caps.(v) in
        match
          ( Cycle.schedule cyc_ws csr ~fixed ~hard_cap,
            find_cycle ~n ~edges ~fixed ~hard_cap )
        with
        | Some a, Some b ->
          if a.Cycle.members <> b.Cycle.members || a.Cycle.mean <> b.Cycle.mean
             || a.Cycle.increments <> b.Cycle.increments
          then ok := false
        | None, None ->
          Arborescence.build_into arb_ws ~fixed ~out_weight:margins view;
          let arb = arborescence ~n ~fixed ~out_weight:(fun v -> margins.(v)) edges in
          for v = 0 to n - 1 do
            if
              Arborescence.parent arb_ws v <> Arborescence.parent arb v
              || Arborescence.alpha arb_ws v <> Arborescence.alpha arb v
              || Arborescence.beta arb_ws v <> Arborescence.beta arb v
              || Arborescence.children arb_ws v <> Arborescence.children arb v
            then ok := false
          done;
          let a = Two_pass.run tp_ws csr ~arb:arb_ws ~fixed ~margin:margins ~hard_cap:caps in
          let b =
            two_pass ~n ~edges ~arb ~fixed ~margin:(fun v -> margins.(v)) ~hard_cap
          in
          if a.Two_pass.l <> b.Two_pass.l then ok := false;
          for i = 0 to Css_mmwc.Csr.num_verts csr - 1 do
            let v = Css_mmwc.Csr.vert csr i in
            if a.Two_pass.l_max.(v) <> b.Two_pass.l_max.(v) then ok := false
          done
        | _ -> ok := false
      done;
      !ok)

(* A pure-graph fixpoint loop: iterate arborescence + two-pass + Eq. (10)
   on synthetic edges until increments vanish — the scheduler's skeleton
   without a timer. Margins are fixed per vertex. *)
let pure_fixpoint ~n ~specs ~margin ~cap ~iters =
  let weights = Array.of_list (List.map (fun (_, _, w) -> w) specs) in
  let srcs = Array.of_list (List.map (fun (s, _, _) -> s) specs) in
  let dsts = Array.of_list (List.map (fun (_, d, _) -> d) specs) in
  let current_margin = Array.init n margin in
  let latency = Array.make n 0.0 in
  let continue_ = ref true in
  let count = ref 0 in
  while !continue_ && !count < iters do
    incr count;
    let edge_list = ref [] in
    Array.iteri
      (fun i w -> if w < -1e-9 then edge_list := (srcs.(i), dsts.(i), w) :: !edge_list)
      weights;
    let neg = Seq_graph.view_of_list (List.rev !edge_list) in
    if neg.Seq_graph.v_n = 0 then continue_ := false
    else begin
      let m v = current_margin.(v) in
      let arb = arborescence ~n ~fixed:no_fixed ~out_weight:m neg in
      let tp = two_pass ~n ~edges:neg ~arb ~fixed:no_fixed ~margin:m ~hard_cap:cap in
      let max_inc = Array.fold_left Float.max 0.0 tp.Two_pass.l in
      if max_inc <= 1e-9 then continue_ := false
      else begin
        Array.iteri
          (fun i _ -> weights.(i) <- weights.(i) +. tp.Two_pass.l.(dsts.(i)) -. tp.Two_pass.l.(srcs.(i)))
          weights;
        Array.iteri
          (fun v l ->
            latency.(v) <- latency.(v) +. l;
            (* raising v consumes its own outgoing margin *)
            current_margin.(v) <- current_margin.(v) -. l)
          tp.Two_pass.l
      end
    end
  done;
  (weights, latency)

let test_pure_fixpoint_zeroes_dag () =
  (* with unlimited margins every DAG violation is fully repairable and
     the fixpoint must reach min slack >= 0 *)
  let rng = Css_util.Rng.create 97 in
  for case = 1 to 25 do
    let n = 8 in
    let specs =
      List.init 14 (fun _ ->
          (Css_util.Rng.int rng n, Css_util.Rng.int rng n, Css_util.Rng.float_in rng (-30.0) (-1.0)))
      |> List.filter (fun (u, v, _) -> u < v)
    in
    if specs <> [] then begin
      let weights, latency =
        pure_fixpoint ~n ~specs ~margin:(fun _ -> infinity) ~cap:(fun _ -> infinity) ~iters:50
      in
      Array.iter
        (fun w ->
          checkb (Printf.sprintf "case %d: edge repaired" case) true (w >= -1e-6))
        weights;
      Array.iter
        (fun l -> checkb (Printf.sprintf "case %d: latency >= 0" case) true (l >= -1e-9))
        latency
    end
  done

let test_pure_fixpoint_respects_margin_balance () =
  (* one edge against one margin: the fixpoint balances them at half *)
  let specs = [ (0, 1, -10.0) ] in
  let margin = function 1 -> 4.0 | _ -> infinity in
  let weights, latency =
    pure_fixpoint ~n:2 ~specs ~margin ~cap:(fun _ -> infinity) ~iters:50
  in
  (* l_1 raises until the edge and the margin meet: -10 + l = 4 - l
     => l = 7, final slack -3 on both sides *)
  checkf 0.01 "balanced latency" 7.0 latency.(1);
  checkf 0.01 "balanced residual" (-3.0) weights.(0)

(* ------------------------------------------------------------------ *)
(* Cycle handling *)

let test_cycle_equalizes_at_mean () =
  let specs = [ (0, 1, -4.0); (1, 2, -2.0); (2, 0, -3.0) ] in
  let edges = synth_edges specs in
  match
    find_cycle ~n:3 ~edges ~fixed:no_fixed ~hard_cap:(fun _ -> infinity)
  with
  | None -> Alcotest.fail "cycle expected"
  | Some r ->
    checkf 1e-9 "mean" (-3.0) r.Cycle.mean;
    checki "members" 3 (List.length r.Cycle.members);
    (* after the Eq. (10) update, every cycle edge sits at the mean *)
    List.iter
      (fun (u, v, w) ->
        let w' = w +. r.Cycle.increments.(v) -. r.Cycle.increments.(u) in
        checkf 1e-9 "equalized" (-3.0) w')
      specs;
    Array.iter (fun l -> checkb "non-negative" true (l >= 0.0)) r.Cycle.increments

let test_cycle_none_on_dag () =
  let edges = synth_edges [ (0, 1, -4.0); (1, 2, -2.0) ] in
  checkb "no cycle" true
    (find_cycle ~n:3 ~edges ~fixed:no_fixed ~hard_cap:(fun _ -> infinity) = None)

let test_cycle_fixed_member_stays () =
  let specs = [ (0, 1, -4.0); (1, 0, -2.0) ] in
  let edges = synth_edges specs in
  match
    find_cycle ~n:2 ~edges ~fixed:(fun v -> v = 0) ~hard_cap:(fun _ -> infinity)
  with
  | None -> Alcotest.fail "cycle expected"
  | Some r -> checkf 1e-9 "fixed member keeps 0" 0.0 r.Cycle.increments.(0)

let test_cycle_caps_respected () =
  let specs = [ (0, 1, -10.0); (1, 0, -2.0) ] in
  let edges = synth_edges specs in
  match find_cycle ~n:2 ~edges ~fixed:no_fixed ~hard_cap:(fun _ -> 1.5) with
  | None -> Alcotest.fail "cycle expected"
  | Some r -> Array.iter (fun l -> checkb "capped" true (l <= 1.5 +. 1e-9)) r.Cycle.increments

let test_cycle_self_loop_ignored () =
  let edges = synth_edges [ (0, 0, -4.0) ] in
  checkb "self loop is not a schedulable cycle" true
    (find_cycle ~n:1 ~edges ~fixed:no_fixed ~hard_cap:(fun _ -> infinity) = None)

(* ------------------------------------------------------------------ *)
(* Optimum bound *)

module Optimum = Css_core.Optimum

let test_optimum_cycle_bound () =
  (* a pure 2-cycle: the bound is its mean *)
  let design = Generator.generate Profile.tiny in
  let verts = Vertex.of_design design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  let ffs = Design.ffs design in
  let add i j w =
    ignore
      (Seq_graph.add_edge g ~launcher:(Graph.Launch_ff ffs.(i)) ~endpoint:(Graph.End_ff ffs.(j))
         ~delay:1.0 ~weight:w)
  in
  add 0 1 (-4.0);
  add 1 0 (-2.0);
  (match Optimum.achievable_wns g ~fixed:(Vertex.is_super verts) with
  | Some b -> checkf 1e-9 "cycle mean" (-3.0) b
  | None -> Alcotest.fail "expected a bound");
  (* acyclic graph among free vertices: no bound *)
  let g2 = Seq_graph.create verts ~corner:Timer.Late in
  let e =
    Seq_graph.add_edge g2 ~launcher:(Graph.Launch_ff ffs.(0)) ~endpoint:(Graph.End_ff ffs.(1))
      ~delay:1.0 ~weight:(-4.0)
  in
  ignore e;
  checkb "no cycle, no bound" true
    (Optimum.achievable_wns g2 ~fixed:(Vertex.is_super verts) = None)

let test_optimum_fixed_path_bound () =
  (* a port-to-port path contracts into a self-loop: its own slack is the
     bound *)
  let design = Generator.generate Profile.tiny in
  let verts = Vertex.of_design design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  ignore
    (Seq_graph.add_edge g ~launcher:(Graph.Launch_port 1) ~endpoint:(Graph.End_port 0)
       ~delay:1.0 ~weight:(-7.0));
  match Optimum.achievable_wns g ~fixed:(Vertex.is_super verts) with
  | Some b -> checkf 1e-9 "port path is invariant" (-7.0) b
  | None -> Alcotest.fail "expected a bound"

let test_optimum_scheduler_never_beats_bound () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let bound, _ = Optimum.gap timer ~corner:Timer.Late in
  ignore (Engine.run_ours timer ~corner:Timer.Late);
  checkb "achieved WNS <= theoretical bound" true (Timer.wns timer Timer.Late <= bound +. 1e-6)

let test_optimum_gap_shape () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let bound, wns = Optimum.gap timer ~corner:Timer.Late in
  checkb "bound at least as good as current" true (bound >= wns -. 1e-6);
  checkb "bound non-positive" true (bound <= 0.0)

(* A round cut short by [?limit] leaves endpoints unwalked, so even a
   zero-increment iteration after it must not end the run [Converged].
   The sb18 preset's port paths collapse onto shared (FF, <OUT>) pairs,
   so a one-endpoint round can walk an endpoint that adds no edge. *)
let test_scheduler_truncated_round_never_converges () =
  let design = Generator.generate (Option.get (Profile.by_name "sb18")) in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let engine = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  let graph = Extract.graph engine in
  let config = { Scheduler.default_config with Scheduler.max_iterations = 5000 } in
  let result = Scheduler.run ~config timer (Scheduler.extraction_of ~limit:1 engine) in
  Alcotest.(check string) "ends converged" "converged"
    (Scheduler.stop_reason_name result.Scheduler.stop_reason);
  List.iter
    (fun (endpoint, slack) ->
      checkb "every violated endpoint is explained" true
        (slack >= Seq_graph.min_weight_from_endpoint graph endpoint -. 1e-6))
    (Timer.violated_endpoints timer Timer.Late)

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_micro () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  (* supernodes are pinned *)
  checkf 1e-9 "IN cap" 0.0 (Bounds.hard_cap timer verts Timer.Late (Vertex.input_super verts));
  checkf 1e-9 "OUT margin" 0.0 (Bounds.margin timer verts Timer.Late (Vertex.output_super verts));
  Array.iter
    (fun ff ->
      let v = Vertex.of_ff verts ff in
      checkb "cap non-negative" true (Bounds.hard_cap timer verts Timer.Late v >= 0.0);
      checkb "cap non-negative early" true (Bounds.hard_cap timer verts Timer.Early v >= 0.0);
      (* margin for late = launch-pin late slack *)
      checkf 1e-9 "late margin = Q slack"
        (Timer.launch_slack timer Timer.Late (Graph.Launch_ff ff))
        (Bounds.margin timer verts Timer.Late v))
    (Design.ffs design)

(* ------------------------------------------------------------------ *)
(* Scheduler (Algorithm 1) *)

let test_scheduler_micro_early () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let wns0 = Timer.wns timer Timer.Early in
  let result, stats = Engine.run_ours timer ~corner:Timer.Early in
  checkb "early WNS improved" true (Timer.wns timer Timer.Early > wns0);
  checkb "some iterations" true (result.Scheduler.iterations >= 1);
  checkb "extracted something" true (stats.Css_seqgraph.Extract.edges_extracted >= 1);
  Array.iter (fun l -> checkb "targets non-negative" true (l >= 0.0)) result.Scheduler.target_latency

let test_scheduler_micro_late () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Late in
  ignore (Engine.run_ours timer ~corner:Timer.Late);
  checkb "late TNS improved" true (Timer.tns timer Timer.Late > tns0)

(* Dev-profile builds pass [-opaque], which blocks cross-module
   inlining: every float-returning call across a module boundary then
   boxes its result (2 minor words). Calibrated on a trivial [Fvec]
   read, as in test_layout, so the budget below is strict under release
   inlining and tolerates only the boxing in dev. *)
let float_box_words =
  let fv = Css_util.Fvec.make 16 0.5 in
  let acc = [| 0.0 |] in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  (Gc.minor_words () -. before) /. 16.0

(* One scheduler iteration allocates what its outputs need (the trace
   record, the raised-FF list, a pinned cycle's members), not arrays or
   lists over the design's vertices: selection, solving and the timer
   update all run in the run's reused workspace. Measured as a full
   run's scheduler-side allocation (extraction is wrapped and taken
   out) less a zero-iteration run's, so the workspace set-up is not
   charged to the iterations; the solver scratch a first cycle or a
   growing graph sizes lazily is charged, once. *)
let test_scheduler_iteration_allocation () =
  (* minor and major: arrays over 256 words skip the minor heap *)
  let allocated_words = Css_util.Rusage.gc_allocated_words in
  let profile = Option.get (Profile.by_name "sb18") in
  let measure ~max_iterations =
    let design = Generator.generate profile in
    let timer_obs = Css_util.Obs.create () in
    let timer = Timer.build ~obs:timer_obs design in
    let extraction, _ = Engine.ours timer ~corner:Timer.Late in
    let obs = Css_util.Obs.create () in
    let ext_words = [| 0.0 |] in
    let extract () =
      let w0 = allocated_words () in
      let round = extraction.Scheduler.extract () in
      ext_words.(0) <- ext_words.(0) +. (allocated_words () -. w0);
      round
    in
    let config = { Scheduler.default_config with Scheduler.max_iterations } in
    let node_visits () =
      let count name = Css_util.Obs.value (Css_util.Obs.counter timer_obs name) in
      count "timer.forward_visits" + count "timer.backward_visits"
    in
    let visits0 = node_visits () in
    let w0 = allocated_words () in
    let result = Scheduler.run ~config ~obs timer { extraction with Scheduler.extract } in
    let words = allocated_words () -. w0 -. ext_words.(0) in
    let counter name = List.assoc name (Css_util.Obs.counters obs) in
    let cycle_members =
      match List.assoc_opt "sched.cycle_len" (Css_util.Obs.histograms obs) with
      | Some h -> Css_util.Histo.sum h
      | None -> 0.0
    in
    let visits = node_visits () - visits0 in
    (result, words, counter "sched.latency_increments", cycle_members, visits)
  in
  let _, setup_words, _, _, _ = measure ~max_iterations:0 in
  let result, words, raised, cycle_members, visits = measure ~max_iterations:100 in
  let iters = result.Scheduler.iterations in
  let graph_edges =
    List.fold_left (fun acc it -> acc + it.Scheduler.edges_in_graph) 0 result.Scheduler.trace
  in
  let iter_words = words -. setup_words in
  (* per iteration: the trace record and its [sched.iter] snapshot, the
     timer update's seed closures, the amortized growth of the reused
     selection columns; 3 words per raised FF (the update's seed list)
     and a few per pinned cycle member. Dev adds the boxing of
     cross-module float reads: about four per timer node visit and a
     dozen per stored edge per iteration (selection, the Eq. (10)
     update, the solvers' edge reads). The design has more vertices
     than the per-iteration allowance, so one array over them per
     iteration would break the budget. *)
  let per_iter = 1024.0 in
  let budget =
    (float_of_int iters *. per_iter)
    +. (3.0 *. float_of_int raised)
    +. (16.0 *. cycle_members)
    +. (float_box_words *. ((8.0 *. float_of_int visits) +. (24.0 *. float_of_int graph_edges)))
  in
  checkb "ran several iterations" true (iters >= 5);
  checkb "more vertices than the per-iteration allowance" true
    (float_of_int (Array.length result.Scheduler.target_latency) > per_iter);
  checkb
    (Printf.sprintf "scheduler iterations allocate O(changes) (%.0f words over %d, budget %.0f)"
       iter_words iters budget)
    true (iter_words <= budget)

let test_scheduler_never_assigns_to_supernodes () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  checkf 1e-9 "IN stays 0" 0.0 result.Scheduler.target_latency.(Vertex.input_super verts);
  checkf 1e-9 "OUT stays 0" 0.0 result.Scheduler.target_latency.(Vertex.output_super verts)

let test_scheduler_trace_monotone () =
  (* the scheduling corner's TNS never gets worse along the trace *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let result, _ = Engine.run_ours timer ~corner:Timer.Late in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      checkb "late TNS monotone" true
        (b.Scheduler.tns_late >= a.Scheduler.tns_late -. 1e-6);
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs result.Scheduler.trace

let test_scheduler_handles_generated_cycles () =
  (* the tiny profile contains a reciprocal violating pair *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let result, _ = Engine.run_ours timer ~corner:Timer.Late in
  checkb "cycle handled" true (result.Scheduler.cycles_handled >= 1)

let test_scheduler_verify_weights_mode_agrees () =
  let run verify =
    let design = Generator.generate Profile.tiny in
    let timer = Timer.build design in
    let config = { Scheduler.default_config with Scheduler.verify_weights = verify } in
    let extraction, _ = Engine.ours timer ~corner:Timer.Late in
    ignore (Scheduler.run ~config timer extraction);
    Timer.tns timer Timer.Late
  in
  checkf 1e-3 "Eq.(10) shortcut = recomputed weights" (run true) (run false)

let test_scheduler_targets_match_design_state () =
  let design = Generator.micro () in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  let result = Scheduler.run timer extraction in
  Array.iter
    (fun ff ->
      checkf 1e-9
        (Printf.sprintf "scheduled latency of %s" (Design.cell_name design ff))
        result.Scheduler.target_latency.(Vertex.of_ff verts ff)
        (Design.scheduled_latency design ff))
    (Design.ffs design)

let test_scheduler_idempotent_when_clean () =
  (* running again after convergence does nothing *)
  let design = Generator.micro () in
  let timer = Timer.build design in
  ignore (Engine.run_ours timer ~corner:Timer.Early);
  let tns = Timer.tns timer Timer.Early in
  let result, _ = Engine.run_ours timer ~corner:Timer.Early in
  checkf 1e-6 "no further change" tns (Timer.tns timer Timer.Early);
  checkb "terminates quickly" true (result.Scheduler.iterations <= 3)

let test_scheduler_does_not_create_cross_corner_wns_violations () =
  (* Eq. (11): late optimization must not make early WNS worse (beyond
     numeric noise), because caps come from the live timer *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  ignore (Engine.run_ours timer ~corner:Timer.Early);
  let early_before = Timer.wns timer Timer.Early in
  ignore (Engine.run_ours timer ~corner:Timer.Late);
  let early_after = Timer.wns timer Timer.Early in
  checkb "early WNS not degraded below 0 by late phase" true
    (early_after >= Float.min early_before 0.0 -. 1e-6)

let test_scheduler_should_stop_immediately () =
  (* [should_stop] is polled before any work: an always-true interrupt
     stops with Interrupted, zero iterations and an untouched design *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let tns0 = Timer.tns timer Timer.Late in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let config =
    { Scheduler.default_config with Scheduler.should_stop = Some (fun () -> true) }
  in
  let result = Scheduler.run ~config timer extraction in
  checkb "interrupted" true (result.Scheduler.stop_reason = Scheduler.Interrupted);
  checki "no iterations" 0 result.Scheduler.iterations;
  checkf 1e-9 "TNS untouched" tns0 (Timer.tns timer Timer.Late);
  Array.iter (fun l -> checkf 1e-9 "no increments" 0.0 l) result.Scheduler.target_latency;
  Alcotest.check Alcotest.string "stable name" "interrupted"
    (Scheduler.stop_reason_name Scheduler.Interrupted)

let test_scheduler_should_stop_after_n () =
  (* interrupting after k polls bounds the iteration count at k, and
     whatever latencies were applied before the interrupt stay applied *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let polls = ref 0 in
  let config =
    {
      Scheduler.default_config with
      Scheduler.should_stop =
        Some
          (fun () ->
            incr polls;
            !polls > 2);
    }
  in
  let result = Scheduler.run ~config timer extraction in
  checkb "interrupted" true (result.Scheduler.stop_reason = Scheduler.Interrupted);
  checkb "bounded iterations" true (result.Scheduler.iterations <= 2);
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  Array.iter
    (fun ff ->
      checkf 1e-9 "partial targets = design state"
        result.Scheduler.target_latency.(Vertex.of_ff verts ff)
        (Design.scheduled_latency design ff))
    (Design.ffs design)

let test_scheduler_best_never_worse_than_traced () =
  (* the best-state guarantee: a Stalled/Max_iterations run ends no
     worse than the best TNS its trace ever reached (restoration backs
     oscillations out); best_restored only fires on those stops *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let result = Scheduler.run timer extraction in
  let final = Timer.tns timer Timer.Late in
  let best_traced =
    List.fold_left
      (fun acc (it : Scheduler.iteration) -> Float.max acc it.Scheduler.tns_late)
      neg_infinity result.Scheduler.trace
  in
  (match result.Scheduler.stop_reason with
  | Scheduler.Stalled | Scheduler.Max_iterations ->
    checkb "final TNS >= best traced" true (final >= best_traced -. 1e-6)
  | _ -> ());
  if result.Scheduler.best_restored then
    checkb "restored only on stall/cap" true
      (result.Scheduler.stop_reason = Scheduler.Stalled
      || result.Scheduler.stop_reason = Scheduler.Max_iterations)

let test_scheduler_best_restore_matches_design () =
  (* whatever the restore did, result.target_latency and the design's
     scheduled latencies must agree afterwards *)
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let result = Scheduler.run timer extraction in
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  Array.iter
    (fun ff ->
      checkf 1e-9 "restored targets = design state"
        result.Scheduler.target_latency.(Vertex.of_ff verts ff)
        (Design.scheduled_latency design ff))
    (Design.ffs design)

(* The restore itself, forced: at the top of iteration 2 (its extraction
   round) every other flip-flop gets +2000 ps of scheduled latency behind
   the partial graph's back, so iteration 2 ends far below iteration 1's
   TNS and the cap stops the run there. The scheduler must hand back
   iteration 1's latencies bit for bit. *)
let test_scheduler_best_restore_forced () =
  let design = Generator.generate Profile.tiny in
  let timer = Timer.build design in
  let extraction, _ = Engine.ours timer ~corner:Timer.Late in
  let ffs = Design.ffs design in
  let bits () = Array.map (fun ff -> Int64.bits_of_float (Design.scheduled_latency design ff)) ffs in
  let best = ref [||] and rounds = ref 0 in
  let extract () =
    incr rounds;
    if !rounds = 2 then begin
      best := bits ();
      Array.iteri
        (fun i ff ->
          if i mod 2 = 0 then
            Design.set_scheduled_latency design ff (Design.scheduled_latency design ff +. 2000.0))
        ffs;
      Timer.update_latencies timer (Array.to_list ffs)
    end;
    extraction.Scheduler.extract ()
  in
  let obs = Css_util.Obs.create () in
  let config = { Scheduler.default_config with Scheduler.max_iterations = 2 } in
  let result = Scheduler.run ~config ~obs timer { extraction with Scheduler.extract } in
  (match result.Scheduler.trace with
  | [ it1; it2 ] ->
    checkb
      (Printf.sprintf "iteration 2 worsened TNS (%g -> %g)" it1.Scheduler.tns_late
         it2.Scheduler.tns_late)
      true
      (it2.Scheduler.tns_late < it1.Scheduler.tns_late)
  | trace -> Alcotest.failf "expected two iterations, got %d" (List.length trace));
  checkb "stopped at the cap" true (result.Scheduler.stop_reason = Scheduler.Max_iterations);
  checkb "best restored" true result.Scheduler.best_restored;
  checki "one restore counted" 1
    (Css_util.Obs.value (Css_util.Obs.counter obs "sched.best_restores"));
  checkb "latencies bitwise equal to iteration 1's" true (bits () = !best);
  let verts = Seq_graph.vertices (Extract.graph extraction.Scheduler.engine) in
  Array.iter
    (fun ff ->
      checkf 0.0 "restored targets = design state"
        result.Scheduler.target_latency.(Vertex.of_ff verts ff)
        (Design.scheduled_latency design ff))
    ffs

let () =
  Alcotest.run "core"
    [
      ( "arborescence",
        [
          Alcotest.test_case "smallest edge wins" `Quick test_arborescence_smallest_edge_wins;
          Alcotest.test_case "alpha/beta" `Quick test_arborescence_alpha_beta;
          Alcotest.test_case "non-decreasing rule" `Quick test_arborescence_nondecreasing_rule;
          Alcotest.test_case "fixed never attached" `Quick test_arborescence_fixed_never_attached;
          Alcotest.test_case "cycle edge skipped" `Quick test_arborescence_cycle_edge_skipped;
          Alcotest.test_case "self loop ignored" `Quick test_arborescence_self_loop_ignored;
          Alcotest.test_case "weights non-decreasing to leaf" `Quick
            test_arborescence_weights_nondecreasing_to_leaf;
        ] );
      ( "two-pass",
        [
          Alcotest.test_case "fig6 structure" `Quick test_fig6_structure;
          Alcotest.test_case "fig6 pass 1 (paper values)" `Quick test_fig6_pass1;
          Alcotest.test_case "fig6 pass 2 (paper values)" `Quick test_fig6_pass2;
          Alcotest.test_case "non-negative and capped" `Quick test_two_pass_nonnegative_and_capped;
          Alcotest.test_case "raises just enough" `Quick
            test_two_pass_zero_targets_nothing_beyond_need;
          Alcotest.test_case "rejects cycles" `Quick test_two_pass_rejects_cycles;
          QCheck_alcotest.to_alcotest prop_workspace_reuse_matches_fresh;
          Alcotest.test_case "fixpoint zeroes DAGs" `Quick test_pure_fixpoint_zeroes_dag;
          Alcotest.test_case "fixpoint balances margins" `Quick
            test_pure_fixpoint_respects_margin_balance;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "equalizes at mean" `Quick test_cycle_equalizes_at_mean;
          Alcotest.test_case "none on DAG" `Quick test_cycle_none_on_dag;
          Alcotest.test_case "fixed member stays" `Quick test_cycle_fixed_member_stays;
          Alcotest.test_case "caps respected" `Quick test_cycle_caps_respected;
          Alcotest.test_case "self loop ignored" `Quick test_cycle_self_loop_ignored;
        ] );
      ( "optimum",
        [
          Alcotest.test_case "cycle bound" `Quick test_optimum_cycle_bound;
          Alcotest.test_case "fixed path bound" `Quick test_optimum_fixed_path_bound;
          Alcotest.test_case "never beats bound" `Quick test_optimum_scheduler_never_beats_bound;
          Alcotest.test_case "gap shape" `Quick test_optimum_gap_shape;
        ] );
      ("bounds", [ Alcotest.test_case "micro" `Quick test_bounds_micro ]);
      ( "scheduler",
        [
          Alcotest.test_case "micro early" `Quick test_scheduler_micro_early;
          Alcotest.test_case "micro late" `Quick test_scheduler_micro_late;
          Alcotest.test_case "supernodes pinned" `Quick test_scheduler_never_assigns_to_supernodes;
          Alcotest.test_case "iteration allocation" `Quick test_scheduler_iteration_allocation;
          Alcotest.test_case "trace monotone" `Quick test_scheduler_trace_monotone;
          Alcotest.test_case "handles cycles" `Quick test_scheduler_handles_generated_cycles;
          Alcotest.test_case "verify-weights agrees" `Quick
            test_scheduler_verify_weights_mode_agrees;
          Alcotest.test_case "targets = design state" `Quick
            test_scheduler_targets_match_design_state;
          Alcotest.test_case "idempotent when clean" `Quick test_scheduler_idempotent_when_clean;
          Alcotest.test_case "cross-corner safety" `Quick
            test_scheduler_does_not_create_cross_corner_wns_violations;
          Alcotest.test_case "should_stop interrupts immediately" `Quick
            test_scheduler_should_stop_immediately;
          Alcotest.test_case "should_stop after n polls" `Quick
            test_scheduler_should_stop_after_n;
          Alcotest.test_case "best state never worse than traced" `Quick
            test_scheduler_best_never_worse_than_traced;
          Alcotest.test_case "best-state restore matches design" `Quick
            test_scheduler_best_restore_matches_design;
          Alcotest.test_case "forced best-state restore" `Quick test_scheduler_best_restore_forced;
          Alcotest.test_case "truncated round never converges" `Quick
            test_scheduler_truncated_round_never_converges;
        ] );
    ]
