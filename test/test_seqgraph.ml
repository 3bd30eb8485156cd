(* Tests for sequential-graph vertices, the graph container, the Eq. (10)
   weight update, and the three extraction engines — in particular the
   key property that the iterative essential engine finds exactly the
   negative edges full extraction finds, and that every engine repeats
   bitwise, also on designs that survived fault-injection repair. *)

module Design = Css_netlist.Design
module Graph = Css_sta.Graph
module Timer = Css_sta.Timer
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Extract = Css_seqgraph.Extract
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Rng = Css_util.Rng
module Obs = Css_util.Obs
module Mutator = Css_benchgen.Mutator
module Io = Css_netlist.Io

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

let tiny_timer () =
  let design = Generator.generate Profile.tiny in
  (design, Timer.build design)

(* ------------------------------------------------------------------ *)
(* Vertex registry *)

let test_vertex_indexing () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  checki "num = ffs + 2" (Array.length ffs + 2) (Vertex.num verts);
  checkb "supers are super" true
    (Vertex.is_super verts (Vertex.input_super verts)
    && Vertex.is_super verts (Vertex.output_super verts));
  checkb "supers distinct" true (Vertex.input_super verts <> Vertex.output_super verts);
  Array.iter
    (fun ff ->
      let v = Vertex.of_ff verts ff in
      checkb "not super" false (Vertex.is_super verts v);
      Alcotest.check (Alcotest.option Alcotest.int) "roundtrip" (Some ff) (Vertex.ff_of verts v))
    ffs

let test_vertex_launcher_endpoint_mapping () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ff = (Design.ffs design).(0) in
  checki "launcher of ff" (Vertex.of_ff verts ff) (Vertex.of_launcher verts (Graph.Launch_ff ff));
  checki "endpoint of ff" (Vertex.of_ff verts ff) (Vertex.of_endpoint verts (Graph.End_ff ff));
  checki "port launcher -> IN" (Vertex.input_super verts)
    (Vertex.of_launcher verts (Graph.Launch_port 0));
  checki "port endpoint -> OUT" (Vertex.output_super verts)
    (Vertex.of_endpoint verts (Graph.End_port 0));
  Alcotest.check Alcotest.string "IN name" "<IN>"
    (Vertex.name verts design (Vertex.input_super verts))

(* ------------------------------------------------------------------ *)
(* Seq_graph container *)

let test_orientation () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let launcher = Graph.Launch_ff ffs.(0) and endpoint = Graph.End_ff ffs.(1) in
  let late = Seq_graph.create verts ~corner:Timer.Late in
  ignore (Seq_graph.add_edge late ~launcher ~endpoint ~delay:10.0 ~weight:(-5.0));
  let e = 0 in
  checki "late: src = launcher" (Vertex.of_ff verts ffs.(0)) (Seq_graph.src late e);
  checki "late: dst = endpoint" (Vertex.of_ff verts ffs.(1)) (Seq_graph.dst late e);
  let early = Seq_graph.create verts ~corner:Timer.Early in
  ignore (Seq_graph.add_edge early ~launcher ~endpoint ~delay:10.0 ~weight:(-5.0));
  let e2 = 0 in
  checki "early: src = endpoint" (Vertex.of_ff verts ffs.(1)) (Seq_graph.src early e2);
  checki "early: dst = launcher" (Vertex.of_ff verts ffs.(0)) (Seq_graph.dst early e2)

let test_parallel_edge_semantics () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  (* same timing path re-extracted: the latest values win (the timer's
     current truth) *)
  let launcher = Graph.Launch_ff ffs.(0) and endpoint = Graph.End_ff ffs.(1) in
  ignore (Seq_graph.add_edge g ~launcher ~endpoint ~delay:10.0 ~weight:(-2.0));
  ignore (Seq_graph.add_edge g ~launcher ~endpoint ~delay:20.0 ~weight:(-7.0));
  ignore (Seq_graph.add_edge g ~launcher ~endpoint ~delay:5.0 ~weight:(-1.0));
  checki "single stored edge" 1 (Seq_graph.num_edges g);
  let e =
    Option.get (Seq_graph.find g ~src:(Vertex.of_ff verts ffs.(0)) ~dst:(Vertex.of_ff verts ffs.(1)))
  in
  checkf 1e-9 "latest weight wins" (-1.0) (Seq_graph.weight g e);
  checkf 1e-9 "latest delay wins" 5.0 (Seq_graph.delay g e);
  (* different port paths collapsing onto the supernode pair: the worst
     of the two is kept *)
  ignore
    (Seq_graph.add_edge g ~launcher:(Graph.Launch_port 0) ~endpoint:(Graph.End_ff ffs.(2))
       ~delay:4.0 ~weight:(-3.0));
  ignore
    (Seq_graph.add_edge g ~launcher:(Graph.Launch_port 1) ~endpoint:(Graph.End_ff ffs.(2))
       ~delay:9.0 ~weight:(-8.0));
  ignore
    (Seq_graph.add_edge g ~launcher:(Graph.Launch_port 2) ~endpoint:(Graph.End_ff ffs.(2))
       ~delay:1.0 ~weight:(-0.5));
  let e2 =
    Option.get
      (Seq_graph.find g ~src:(Vertex.input_super verts) ~dst:(Vertex.of_ff verts ffs.(2)))
  in
  checkf 1e-9 "worst port path kept" (-8.0) (Seq_graph.weight g e2)

let test_add_edge_outcomes () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  let outcome name expected got =
    let show = function
      | Seq_graph.Inserted -> "inserted"
      | Seq_graph.Rebound -> "rebound"
      | Seq_graph.Refreshed -> "refreshed"
    in
    Alcotest.(check string) name (show expected) (show got)
  in
  let add launcher endpoint w = Seq_graph.add_edge g ~launcher ~endpoint ~delay:1.0 ~weight:w in
  let ff0 = Graph.Launch_ff ffs.(0) and ff1 = Graph.End_ff ffs.(1) in
  outcome "new pair" Seq_graph.Inserted (add ff0 ff1 (-2.0));
  outcome "same path again" Seq_graph.Refreshed (add ff0 ff1 (-9.0));
  let out0 = Graph.End_port 0 and out1 = Graph.End_port 1 in
  outcome "port path" Seq_graph.Inserted (add ff0 out0 (-3.0));
  outcome "milder port path collapses" Seq_graph.Refreshed (add ff0 out1 (-1.0));
  outcome "worse port path binds" Seq_graph.Rebound (add ff0 out1 (-4.0));
  checki "two pairs" 2 (Seq_graph.num_edges g)

(* Two output ports reached from one FF collapse onto the single
   (FF, <OUT>) pair. Both endpoints must be explained by it, and the pair
   must carry the binding path's labels with its delay, so a weight
   refresh re-derives that path's slack. *)
let test_collapsed_port_pair () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let port_paths ff =
    List.filter
      (fun (e, _) -> match e with Graph.End_port _ -> true | Graph.End_ff _ -> false)
      (fst (Timer.cone_from_launcher timer Timer.Late (Graph.Launch_ff ff)))
  in
  let ff, paths =
    match
      List.find_map
        (fun ff -> match port_paths ff with _ :: _ :: _ as ps -> Some (ff, ps) | _ -> None)
        (Array.to_list (Design.ffs design))
    with
    | Some found -> found
    | None -> Alcotest.fail "tiny has no FF reaching two output ports"
  in
  let launcher = Graph.Launch_ff ff in
  let slack (endpoint, delay) = Timer.edge_slack timer Timer.Late ~launcher ~endpoint ~delay in
  let a, b =
    match List.sort (fun p q -> Float.compare (slack q) (slack p)) paths with
    | mild :: worst :: _ -> (mild, worst)
    | _ -> assert false
  in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  List.iter
    (fun ((endpoint, delay) as p) ->
      ignore (Seq_graph.add_edge g ~launcher ~endpoint ~delay ~weight:(slack p)))
    [ a; b ];
  checki "one collapsed pair" 1 (Seq_graph.num_edges g);
  let id = 0 in
  checkb "binding endpoint labels the pair" true (Seq_graph.endpoint g id = fst b);
  checkf 1e-9 "binding delay" (snd b) (Seq_graph.delay g id);
  List.iter
    (fun (endpoint, _) ->
      checkf 1e-9 "known = the pair's weight" (slack b)
        (Seq_graph.min_weight_from_endpoint g endpoint))
    [ a; b ];
  checkb "the other port is listed as collapsed" true
    (Seq_graph.collapsed_endpoints g id = [ fst a ]);
  Seq_graph.set_weight g id 0.0;
  Seq_graph.refresh_weights g timer;
  checkf 1e-9 "refresh re-derives the binding path" (slack b) (Seq_graph.weight g id)

(* A snapshot replays collapsed endpoints, so a restored engine explains
   exactly the endpoints the live one does and its next round walks
   nothing. *)
let test_snapshot_keeps_collapsed_endpoints () =
  (* tiny has no collapsed port pairs; the sb18 preset's first round does *)
  let design = Generator.generate (Option.get (Profile.by_name "sb18")) in
  let timer = Timer.build design in
  let verts = Vertex.of_design design in
  let live = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  ignore (Extract.round live);
  let g = Extract.graph live in
  checkb "some pair has a collapsed endpoint" true
    (let found = ref false in
     Seq_graph.iter_edges g (fun id ->
         if Seq_graph.collapsed_endpoints g id <> [] then found := true);
     !found);
  let restored = Extract.restore (Extract.snapshot live) timer verts ~corner:Timer.Late in
  let rg = Extract.graph restored in
  checki "same edges" (Seq_graph.num_edges g) (Seq_graph.num_edges rg);
  List.iter
    (fun (endpoint, _) ->
      checkb "same known weight" true
        (Seq_graph.min_weight_from_endpoint g endpoint
        = Seq_graph.min_weight_from_endpoint rg endpoint))
    (Timer.violated_endpoints timer Timer.Late);
  checkb "snapshot round-trips" true (Extract.snapshot restored = Extract.snapshot live);
  checki "restored round walks nothing" 0 (Extract.round restored).Extract.added;
  checki "restored stats: growth" (Seq_graph.num_edges rg) (Extract.stats restored).Extract.edges_new

let test_adjacency () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  let add i j w =
    ignore
      (Seq_graph.add_edge g ~launcher:(Graph.Launch_ff ffs.(i)) ~endpoint:(Graph.End_ff ffs.(j))
         ~delay:1.0 ~weight:w)
  in
  add 0 1 (-1.0);
  add 0 2 (-2.0);
  add 3 1 (-3.0);
  (* degrees in scheduling orientation, counted over every vertex *)
  let count f = List.length (List.filter f (List.init (Vertex.num verts) Fun.id)) in
  let edge src dst = Seq_graph.find g ~src ~dst <> None in
  let v0 = Vertex.of_ff verts ffs.(0) and v1 = Vertex.of_ff verts ffs.(1) in
  checki "out of v0" 2 (count (edge v0));
  checki "in of v1" 2 (count (fun w -> edge w v1));
  checki "out of v1" 0 (count (edge v1));
  checkf 1e-9 "min weight at endpoint v1" (-3.0)
    (Seq_graph.min_weight_from_endpoint g (Graph.End_ff ffs.(1)));
  checkb "min weight of unseen endpoint" true
    (Seq_graph.min_weight_from_endpoint g (Graph.End_ff ffs.(4)) = infinity)

let test_eq10_update () =
  let design, _ = tiny_timer () in
  let verts = Vertex.of_design design in
  let ffs = Design.ffs design in
  let g = Seq_graph.create verts ~corner:Timer.Late in
  ignore
    (Seq_graph.add_edge g ~launcher:(Graph.Launch_ff ffs.(0)) ~endpoint:(Graph.End_ff ffs.(1))
       ~delay:1.0 ~weight:(-10.0));
  let e = 0 in
  let deltas = Array.make (Vertex.num verts) 0.0 in
  deltas.(Vertex.of_ff verts ffs.(1)) <- 4.0;
  deltas.(Vertex.of_ff verts ffs.(0)) <- 1.0;
  Seq_graph.apply_latency_delta g deltas;
  checkf 1e-9 "w += l_dst - l_src" (-7.0) (Seq_graph.weight g e)

(* Eq. (10) must agree with re-deriving weights from the timer after real
   latency changes — the linearity the Update-Extract mechanism rests on. *)
let test_eq10_matches_timer () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let graph = Extract.graph (Extract.run ~engine:Extract.Full timer verts ~corner:Timer.Late) in
  let rng = Rng.create 31 in
  let ffs = Design.ffs design in
  let deltas = Array.make (Vertex.num verts) 0.0 in
  Array.iter
    (fun ff ->
      if Rng.bool rng then begin
        let d = Rng.float rng 30.0 in
        deltas.(Vertex.of_ff verts ff) <- d;
        Design.set_scheduled_latency design ff (Design.scheduled_latency design ff +. d)
      end)
    ffs;
  Timer.update_latencies timer (Array.to_list ffs);
  Seq_graph.apply_latency_delta graph deltas;
  Seq_graph.iter_edges graph (fun e ->
      let reference = Seq_graph.recompute_weight graph timer e in
      checkb "Eq.(10) = Eq.(2)" true (Float.abs (Seq_graph.weight graph e -. reference) < 1e-6))

(* ------------------------------------------------------------------ *)
(* Extraction engines *)

let test_full_extraction_covers_design () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let feng = Extract.run ~engine:Extract.Full timer verts ~corner:Timer.Late in
  let graph = Extract.graph feng and stats = Extract.stats feng in
  checkb "many edges" true (Seq_graph.num_edges graph > Array.length (Design.ffs design) / 2);
  checkb "visited nodes" true (stats.Extract.cone_nodes > 0);
  checkb "edge count >= stored (parallel merged)" true
    (stats.Extract.edges_extracted >= Seq_graph.num_edges graph)

let test_essential_finds_all_negative_edges () =
  (* the central extraction property: iterative essential = negative
     subset of full, with equal weights *)
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let full = Extract.graph (Extract.run ~engine:Extract.Full timer verts ~corner:Timer.Late) in
  let essential = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  ignore (Extract.round essential);
  let eg = Extract.graph essential in
  (* Every negative full-graph edge whose endpoint is violated appears:
     a violated endpoint's cone contains all its negative in-edges. *)
  Seq_graph.iter_edges full (fun e ->
      if Seq_graph.weight full e < -1e-9 then begin
        match Seq_graph.find eg ~src:(Seq_graph.src full e) ~dst:(Seq_graph.dst full e) with
        | None ->
          Alcotest.fail
            (Printf.sprintf "essential missed a negative edge (w=%.2f)" (Seq_graph.weight full e))
        | Some e' ->
          checkb "weights agree" true
            (Float.abs (Seq_graph.weight eg e' -. Seq_graph.weight full e) < 1e-6)
      end);
  (* and nothing non-negative is stored *)
  Seq_graph.iter_edges eg (fun e -> checkb "only essential" true (Seq_graph.weight eg e < 0.0))

let test_essential_early_corner () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let full = Extract.graph (Extract.run ~engine:Extract.Full timer verts ~corner:Timer.Early) in
  let essential = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Early in
  ignore (Extract.round essential);
  let eg = Extract.graph essential in
  Seq_graph.iter_edges full (fun e ->
      if Seq_graph.weight full e < -1e-9 then
        checkb "early essential found" true
          (Seq_graph.find eg ~src:(Seq_graph.src full e) ~dst:(Seq_graph.dst full e) <> None))

let test_essential_skips_explained_endpoints () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let essential = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  let added1 = (Extract.round essential).Extract.added in
  let cones1 = (Extract.stats essential).Extract.cone_nodes in
  (* a second round with unchanged timing walks nothing new *)
  let added2 = (Extract.round essential).Extract.added in
  let cones2 = (Extract.stats essential).Extract.cone_nodes in
  checkb "first round found edges" true (added1 > 0);
  checki "second round adds nothing" 0 added2;
  checki "second round walks nothing" cones1 cones2;
  ignore design

let test_essential_extracts_fewer_than_iccss () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let essential = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  ignore (Extract.round essential);
  let design2 = Generator.generate Profile.tiny in
  let timer2 = Timer.build design2 in
  let verts2 = Vertex.of_design design2 in
  let iccss = Extract.run ~engine:Extract.Iccss timer2 verts2 ~corner:Timer.Late in
  ignore (Extract.round iccss);
  let e1 = (Extract.stats essential).Extract.edges_extracted in
  let e2 = (Extract.stats iccss).Extract.edges_extracted in
  checkb "essential extracts fewer edges than IC-CSS callback" true (e1 < e2);
  ignore design

let test_iccss_extracts_critical_outgoing () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let iccss = Extract.run ~engine:Extract.Iccss timer verts ~corner:Timer.Late in
  let fired = (Extract.round iccss).Extract.added in
  checkb "some vertices critical" true (fired > 0);
  let g = Extract.graph iccss in
  (* IC-CSS materializes non-essential edges too *)
  let has_positive = ref false in
  Seq_graph.iter_edges g (fun e -> if Seq_graph.weight g e >= 0.0 then has_positive := true);
  checkb "positives included (over-extraction)" true !has_positive;
  (* second call does not re-expand *)
  let fired2 = (Extract.round iccss).Extract.added in
  checki "no re-expansion without latency change" 0 fired2;
  ignore design

(* [Extract.cap_hit] on every vertex: an IC-CSS engine charges each
   flip-flop's cross-corner constraint edges (its early fan-in when
   optimizing late, its late fan-out when optimizing early) and nothing
   for a supernode; the other engines charge nothing. *)
let test_iccss_constraint_edges_charge_cost () =
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  List.iter
    (fun corner ->
      let expected = ref 0 and visited = ref 0 in
      Array.iter
        (fun ff ->
          let n, seen =
            match corner with
            | Timer.Late ->
              let found, seen = Timer.cone_to_endpoint timer Timer.Early (Graph.End_ff ff) in
              (List.length found, seen)
            | Timer.Early ->
              let found, seen = Timer.cone_from_launcher timer Timer.Late (Graph.Launch_ff ff) in
              (List.length found, seen)
          in
          expected := !expected + n;
          visited := !visited + seen)
        (Design.ffs design);
      checkb "some constraint edges" true (!expected > 0);
      List.iter
        (fun engine ->
          let obs = Obs.create () in
          let eng = Extract.run ~obs ~engine timer verts ~corner in
          let s = Extract.stats eng in
          let edges0 = s.Extract.edges_extracted and cone0 = s.Extract.cone_nodes in
          for v = 0 to Vertex.num verts - 1 do
            Extract.cap_hit eng v
          done;
          let charged, walked =
            match engine with Extract.Iccss -> (!expected, !visited) | _ -> (0, 0)
          in
          let name = Extract.engine_name engine in
          checki (name ^ " edges charged") (edges0 + charged) s.Extract.edges_extracted;
          checki (name ^ " cone nodes charged") (cone0 + walked) s.Extract.cone_nodes;
          checki (name ^ " counter") charged
            (Option.value ~default:0
               (List.assoc_opt "extract.iccss.constraint_edges" (Obs.counters obs))))
        [ Extract.Iccss; Extract.Essential; Extract.Full ])
    [ Timer.Late; Timer.Early ]

let test_iccss_criticality_grows_with_latency () =
  (* raising a latency can only make more vertices critical (Eq. 8 uses
     the one-time bound), firing new expansions *)
  let design, timer = tiny_timer () in
  let verts = Vertex.of_design design in
  let iccss = Extract.run ~engine:Extract.Iccss timer verts ~corner:Timer.Late in
  ignore (Extract.round iccss);
  let ffs = Design.ffs design in
  Array.iter (fun ff -> Design.set_scheduled_latency design ff 300.0) ffs;
  Timer.update_latencies timer (Array.to_list ffs);
  let fired = (Extract.round iccss).Extract.added in
  checkb "large latencies trigger more expansion" true (fired > 0)

(* ------------------------------------------------------------------ *)
(* Determinism: everything observable from one extraction run — the
   ordered edge list, the stats record, the round-by-round work trace
   and the Obs counters — repeats on a fresh run over a freshly
   generated design, and the timer's cone-walk total is the engine's. *)

type run_record = {
  rr_edges : (int * int * float * float) list; (* src, dst, delay, weight *)
  rr_stats : Extract.stats;
  rr_rounds : int list;
  rr_counters : (string * int) list;
}

let run_engine engine design =
  let obs = Obs.create () in
  let timer = Timer.build ~obs design in
  let verts = Vertex.of_design design in
  let eng = Extract.run ~obs ~engine timer verts ~corner:Timer.Late in
  (* loop until a round changes nothing: with the timer fixed, a second
     walk of an endpoint only refreshes what the first stored *)
  let fired = ref [] in
  let continue_ = ref true in
  while !continue_ do
    let n = (Extract.round eng).Extract.added in
    fired := n :: !fired;
    if n = 0 then continue_ := false
  done;
  let edges = ref [] in
  let g = Extract.graph eng in
  Seq_graph.iter_edges g (fun e ->
      edges := (Seq_graph.src g e, Seq_graph.dst g e, Seq_graph.delay g e, Seq_graph.weight g e) :: !edges);
  {
    rr_edges = List.rev !edges;
    rr_stats = Extract.stats eng;
    rr_rounds = List.rev !fired;
    rr_counters = Obs.counters obs;
  }

(* Generators are deterministic in the profile seed, so calling [mk]
   afresh reproduces the identical design. *)
let sweep name mk =
  List.iter
    (fun engine ->
      let ename = Extract.engine_name engine in
      let tag what = Printf.sprintf "%s/%s %s" name ename what in
      let a = run_engine engine (mk ()) in
      let b = run_engine engine (mk ()) in
      checkb (tag "extracts work") true (a.rr_stats.Extract.cone_nodes > 0);
      checkb (tag "timer cone total = engine's") true
        (List.assoc_opt "timer.cone_nodes" a.rr_counters = Some a.rr_stats.Extract.cone_nodes);
      checkb (tag "edge lists bit-identical") true (a.rr_edges = b.rr_edges);
      checkb (tag "stats identical") true (a.rr_stats = b.rr_stats);
      checkb (tag "round trace identical") true (a.rr_rounds = b.rr_rounds);
      checkb (tag "obs counters identical") true (a.rr_counters = b.rr_counters))
    [ Extract.Full; Extract.Essential; Extract.Iccss ]

let test_determinism_tiny () = sweep "tiny" (fun () -> Generator.generate Profile.tiny)

let test_determinism_scaled () =
  sweep "sb18-scaled" (fun () ->
      Generator.generate (Profile.scale 0.12 (Option.get (Profile.by_name "sb18"))))

(* A design that survived fault injection exercises the repaired-input
   shapes (dangling pins dropped, etc.) the clean generators never
   produce. *)
let test_determinism_corrupted () =
  let mk () =
    let text = Io.to_string (Generator.generate Profile.tiny) in
    let text, _ = Mutator.corrupt Mutator.Drop_net (Rng.create 77) text in
    match Io.of_string ~policy:Io.Recover ~library:Css_liberty.Library.default text with
    | Ok (d, _) -> d
    | Error _ -> Alcotest.fail "corrupted design did not recover"
  in
  sweep "tiny-corrupted" mk

let () =
  Alcotest.run "seqgraph"
    [
      ( "vertex",
        [
          Alcotest.test_case "indexing" `Quick test_vertex_indexing;
          Alcotest.test_case "launcher/endpoint map" `Quick test_vertex_launcher_endpoint_mapping;
        ] );
      ( "graph",
        [
          Alcotest.test_case "orientation" `Quick test_orientation;
          Alcotest.test_case "parallel edge semantics" `Quick test_parallel_edge_semantics;
          Alcotest.test_case "add_edge outcomes" `Quick test_add_edge_outcomes;
          Alcotest.test_case "collapsed port pair" `Quick test_collapsed_port_pair;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "Eq.(10) update" `Quick test_eq10_update;
          Alcotest.test_case "Eq.(10) matches timer" `Quick test_eq10_matches_timer;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "full covers design" `Quick test_full_extraction_covers_design;
          Alcotest.test_case "essential = negative(full)" `Quick
            test_essential_finds_all_negative_edges;
          Alcotest.test_case "essential early corner" `Quick test_essential_early_corner;
          Alcotest.test_case "essential skips explained" `Quick
            test_essential_skips_explained_endpoints;
          Alcotest.test_case "snapshot keeps collapsed endpoints" `Quick
            test_snapshot_keeps_collapsed_endpoints;
          Alcotest.test_case "essential < IC-CSS edges" `Quick
            test_essential_extracts_fewer_than_iccss;
          Alcotest.test_case "IC-CSS critical expansion" `Quick
            test_iccss_extracts_critical_outgoing;
          Alcotest.test_case "IC-CSS constraint-edge cost" `Quick
            test_iccss_constraint_edges_charge_cost;
          Alcotest.test_case "IC-CSS criticality grows" `Quick
            test_iccss_criticality_grows_with_latency;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tiny, all engines" `Quick test_determinism_tiny;
          Alcotest.test_case "scaled sb18, all engines" `Quick test_determinism_scaled;
          Alcotest.test_case "mutator-corrupted design" `Quick test_determinism_corrupted;
        ] );
    ]
