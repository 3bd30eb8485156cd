(* Incremental timing exploration: the Update-Extract mechanism by hand.

   This example drives the timer and the essential-edge extractor
   directly — the services the scheduler composes — to answer what-if
   questions: "if this flip-flop's clock arrives 40 ps later, what breaks
   and what gets fixed, and which sequential edges become essential?"

   Run with:  dune exec examples/incremental_whatif.exe *)

module Design = Css_netlist.Design
module Timer = Css_sta.Timer
module Vertex = Css_seqgraph.Vertex
module Extract = Css_seqgraph.Extract
module Seq_graph = Css_seqgraph.Seq_graph

let show tag timer =
  Printf.printf "%-34s early %8.2f/%9.2f  late %8.2f/%10.2f\n" tag
    (Timer.wns timer Timer.Early) (Timer.tns timer Timer.Early) (Timer.wns timer Timer.Late)
    (Timer.tns timer Timer.Late)

let () =
  let design = Css_benchgen.Generator.generate Css_benchgen.Profile.tiny in
  let obs = Css_util.Obs.create () in
  let timer = Timer.build ~obs design in
  Printf.printf "design %s (%d cells); WNS/TNS per corner:\n" (Design.name design)
    (Design.num_cells design);
  show "initial" timer;

  (* pick the worst late endpoint and its capture flip-flop *)
  let victim_ff =
    match Timer.violated_endpoints timer Timer.Late with
    | (Css_sta.Graph.End_ff ff, _) :: _ -> ff
    | _ -> (Design.ffs design).(0)
  in
  Printf.printf "\nworst late capture FF: %s (latency %.1f ps)\n"
    (Design.cell_name design victim_ff)
    (Design.clock_latency design victim_ff);

  (* what-if: +40 ps of capture latency. Only the affected cones are
     re-propagated — watch the visit counters. *)
  let visits () =
    let count name = Css_util.Obs.value (Css_util.Obs.counter obs name) in
    count "timer.forward_visits" + count "timer.backward_visits"
  in
  let visits0 = visits () in
  Design.set_scheduled_latency design victim_ff 40.0;
  Timer.update_latencies timer [ victim_ff ];
  let visits1 = visits () in
  show "what-if: +40ps on that FF" timer;
  Printf.printf "  (incremental update recomputed %d node states, graph has %d nodes)\n"
    (visits1 - visits0)
    (Css_sta.Graph.num_nodes (Timer.graph timer));

  (* undo *)
  Design.set_scheduled_latency design victim_ff 0.0;
  Timer.update_latencies timer [ victim_ff ];
  show "undone" timer;

  (* Update-Extract by hand: round 1 walks all violated endpoints; a
     second round with no timing change walks nothing. *)
  let verts = Vertex.of_design design in
  let engine = Extract.run ~engine:Extract.Essential timer verts ~corner:Timer.Late in
  let added1 = (Extract.round engine).Extract.added in
  let e_stats = Extract.stats engine in
  Printf.printf "\nessential extraction round 1: %d edges, %d gate-level nodes walked\n" added1
    e_stats.Extract.cone_nodes;
  let added2 = (Extract.round engine).Extract.added in
  Printf.printf "round 2 (nothing changed):    %d edges, %d nodes walked (cumulative)\n" added2
    e_stats.Extract.cone_nodes;

  (* raise one launcher: only the endpoints it newly violates get walked *)
  let graph = Extract.graph engine in
  (* edge ids count up from 0 in insertion order: take round 1's first *)
  (match Vertex.ff_of verts (Seq_graph.src graph 0) with
  | Some ff ->
    Design.set_scheduled_latency design ff 60.0;
    Timer.update_latencies timer [ ff ];
    Printf.printf "\nraised launcher %s by 60 ps;\n" (Design.cell_name design ff)
  | None -> ());
  let added3 = (Extract.round engine).Extract.added in
  Printf.printf "round 3 extracts only the newly violated endpoints: %d new edges, %d nodes\n"
    added3 e_stats.Extract.cone_nodes;
  show "after the perturbation" timer
