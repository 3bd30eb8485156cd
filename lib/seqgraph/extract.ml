module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell
module Obs = Css_util.Obs
module Histo = Css_util.Histo

type stats = {
  mutable edges_extracted : int;
  mutable edges_new : int;
  mutable re_extractions : int;
  mutable cone_nodes : int;
  mutable rounds : int;
}

let fresh_stats () =
  { edges_extracted = 0; edges_new = 0; re_extractions = 0; cone_nodes = 0; rounds = 0 }

type outcome = { added : int; truncated : bool }

type engine = Full | Essential | Iccss

let engine_name = function Full -> "full" | Essential -> "essential" | Iccss -> "iccss"

(* Per-engine observability handles, resolved once per engine instance so
   the extraction loops bump counters without name lookups. *)
type obs_counters = {
  o_edges : Obs.counter;  (* edges that grew the graph *)
  o_re : Obs.counter;  (* kept candidates that landed on a stored pair *)
  o_candidates : Obs.counter;  (* cone results examined (kept or not) *)
  o_endpoints : Obs.counter;  (* endpoints / vertices cone-walked *)
  o_cone : Obs.counter;
  o_rounds : Obs.counter;
  o_walks : Obs.counter;  (* cone traversals *)
  (* Cone-walk size distribution (visited nodes per walked item).
     [Histo.dummy] when observability is off. *)
  h_cone : Histo.t;
}

let resolve_obs obs engine =
  {
    o_edges = Obs.counter obs (Printf.sprintf "extract.%s.edges" engine);
    o_re = Obs.counter obs (Printf.sprintf "extract.%s.re_extractions" engine);
    o_candidates = Obs.counter obs (Printf.sprintf "extract.%s.candidate_edges" engine);
    o_endpoints = Obs.counter obs (Printf.sprintf "extract.%s.endpoints_walked" engine);
    o_cone = Obs.counter obs (Printf.sprintf "extract.%s.cone_nodes" engine);
    o_rounds = Obs.counter obs (Printf.sprintf "extract.%s.rounds" engine);
    o_walks = Obs.counter obs (Printf.sprintf "extract.%s.cone_walks" engine);
    h_cone = Obs.histogram obs (Printf.sprintf "extract.%s.cone_visited" engine);
  }

(* One candidate sequential edge produced by a cone walk. *)
type cand = {
  c_launcher : Graph.launcher;
  c_endpoint : Graph.endpoint;
  c_delay : float;
  c_weight : float;
}

(* The result of cone-walking one work item (an endpoint, a launcher,
   or an IC-CSS vertex): its candidates in enumeration order, the
   visited node count and the number of cones walked. *)
type item = { it_cands : cand list; it_visited : int; it_walks : int }

type t = {
  kind : engine;
  timer : Timer.t;
  verts : Vertex.t;
  graph : Seq_graph.t;
  stats : stats;
  oc : obs_counters;
  mutable pending_first : int;  (* Full: work count reported by the first round *)
  (* IC-CSS state *)
  bound : float array;  (* one-time extreme outgoing/incoming path delay *)
  expanded : bool array;
  o_constraint : Obs.counter;  (* Section III-E(ii) constraint edges *)
}

let graph t = t.graph
let stats t = t.stats
let engine t = t.kind

(* Walk items [0, n) in order: [f i] cone-walks item [i], and its kept
   candidates go into the graph in enumeration order. The walks read
   only the timer, never the graph, so inserting as they go sees exactly
   what the walk of the next item would have seen. The round's stats and
   counters are flushed once at the end. Returns the number of kept
   candidates that changed the graph's constraint set (inserted or
   rebound); refreshing a stored path does not count. *)
let walk ?(keep = fun _ -> true) t ~n (f : int -> item) =
  let inserted = ref 0 and rebound = ref 0 and kept = ref 0 in
  let visited = ref 0 and cands = ref 0 and walks = ref 0 in
  for i = 0 to n - 1 do
    let it = f i in
    visited := !visited + it.it_visited;
    walks := !walks + it.it_walks;
    Histo.observe_int t.oc.h_cone it.it_visited;
    List.iter
      (fun c ->
        incr cands;
        if keep c then begin
          incr kept;
          match
            Seq_graph.add_edge t.graph ~launcher:c.c_launcher ~endpoint:c.c_endpoint
              ~delay:c.c_delay ~weight:c.c_weight
          with
          | Seq_graph.Inserted -> incr inserted
          | Seq_graph.Rebound -> incr rebound
          | Seq_graph.Refreshed -> ()
        end)
      it.it_cands
  done;
  let re = !kept - !inserted in
  t.stats.edges_extracted <- t.stats.edges_extracted + !inserted;
  t.stats.edges_new <- t.stats.edges_new + !inserted;
  t.stats.re_extractions <- t.stats.re_extractions + re;
  t.stats.cone_nodes <- t.stats.cone_nodes + !visited;
  Obs.add t.oc.o_edges !inserted;
  Obs.add t.oc.o_re re;
  Obs.add t.oc.o_candidates !cands;
  Obs.add t.oc.o_cone !visited;
  Obs.add t.oc.o_walks !walks;
  !inserted + !rebound

(* ------------------------------------------------------------------ *)
(* Full extraction                                                     *)

let full_extract t =
  let corner = Seq_graph.corner t.graph in
  let g = Timer.graph t.timer in
  let srcs = Graph.sources g in
  let n = Array.length srcs in
  Obs.add t.oc.o_endpoints n;
  let added =
    walk t ~n (fun i ->
        let root = srcs.(i) in
        let launcher = Graph.launcher_of_node g root in
        let found, visited = Timer.cone t.timer corner ~root ~forward:true in
        let cands =
          List.map
            (fun (node, delay) ->
              let endpoint = Graph.endpoint_of_node g node in
              let weight = Timer.edge_slack t.timer corner ~launcher ~endpoint ~delay in
              { c_launcher = launcher; c_endpoint = endpoint; c_delay = delay; c_weight = weight })
            found
        in
        { it_cands = cands; it_visited = visited; it_walks = 1 })
  in
  t.stats.rounds <- t.stats.rounds + 1;
  Obs.incr t.oc.o_rounds;
  added

(* ------------------------------------------------------------------ *)
(* The paper's essential (Update-Extract) engine                       *)

(* A violated endpoint needs (re-)extraction when its worst slack is not
   already explained by a stored edge: either it was never walked, or a
   previously positive (unextracted) path has turned negative. The
   selection runs against the pre-round graph before any walk; each
   endpoint appears at most once in [violated_endpoints], so this
   round's insertions could not change another endpoint's test anyway.
   Past [limit] walks the round is truncated: the first endpoint that
   still needs a walk says so, and the rest are not tested. *)
let essential_round ?(limit = max_int) t =
  t.stats.rounds <- t.stats.rounds + 1;
  Obs.incr t.oc.o_rounds;
  let corner = Seq_graph.corner t.graph in
  let selected = ref [] in
  let walked = ref 0 in
  let truncated = ref false in
  List.iter
    (fun (endpoint, slack) ->
      if not !truncated then begin
        let known = Seq_graph.min_weight_from_endpoint t.graph endpoint in
        if slack < known -. 1e-6 then
          if !walked < limit then begin
            incr walked;
            selected := endpoint :: !selected
          end
          else truncated := true
      end)
    (Timer.violated_endpoints t.timer corner);
  let selected = Array.of_list (List.rev !selected) in
  let n = Array.length selected in
  Obs.add t.oc.o_endpoints n;
  let g = Timer.graph t.timer in
  let added =
    walk ~keep:(fun c -> c.c_weight < 0.0) t ~n (fun i ->
        let endpoint = selected.(i) in
        let root = Graph.node_of_endpoint g endpoint in
        let found, visited = Timer.cone t.timer corner ~root ~forward:false in
        let cands =
          List.map
            (fun (node, delay) ->
              let launcher = Graph.launcher_of_node g node in
              let weight = Timer.edge_slack t.timer corner ~launcher ~endpoint ~delay in
              { c_launcher = launcher; c_endpoint = endpoint; c_delay = delay; c_weight = weight })
            found
        in
        { it_cands = cands; it_visited = visited; it_walks = 1 })
  in
  { added; truncated = !truncated }

(* ------------------------------------------------------------------ *)
(* IC-CSS callback extraction (Albrecht, adapted)                      *)

(* One global DP giving, per vertex, the quantity Eq. (8) tests against:
   late -> the max path delay from the vertex's launch pin to any
   endpoint; early -> the min path delay from any launch pin to the
   vertex's capture pin. Computed once, exactly as IC-CSS prescribes. *)
let compute_bound timer verts corner =
  let g = Timer.graph timer in
  let n = Graph.num_nodes g in
  let topo = Graph.topo_order g in
  let dist =
    Array.make n (match corner with Timer.Late -> neg_infinity | Timer.Early -> infinity)
  in
  (match corner with
  | Timer.Late ->
    Array.iter (fun e -> dist.(e) <- 0.0) (Graph.endpoints g);
    for i = Array.length topo - 1 downto 0 do
      let u = topo.(i) in
      if not (Graph.is_endpoint g u) then
        Graph.iter_out g u (fun a v ->
            if dist.(v) > neg_infinity then begin
              let cand = Timer.arc_delay timer Timer.Late a +. dist.(v) in
              if cand > dist.(u) then dist.(u) <- cand
            end)
    done
  | Timer.Early ->
    Array.iter (fun s -> dist.(s) <- 0.0) (Graph.sources g);
    Array.iter
      (fun v ->
        if not (Graph.is_source g v) then
          Graph.iter_in g v (fun a u ->
              if dist.(u) < infinity then begin
                let cand = dist.(u) +. Timer.arc_delay timer Timer.Early a in
                if cand < dist.(v) then dist.(v) <- cand
              end))
      topo);
  let bound =
    Array.make (Vertex.num verts)
      (match corner with Timer.Late -> neg_infinity | Timer.Early -> infinity)
  in
  let fold v cand =
    match corner with
    | Timer.Late -> if cand > bound.(v) then bound.(v) <- cand
    | Timer.Early -> if cand < bound.(v) then bound.(v) <- cand
  in
  (match corner with
  | Timer.Late ->
    Array.iter
      (fun s -> fold (Vertex.of_launcher verts (Graph.launcher_of_node g s)) dist.(s))
      (Graph.sources g)
  | Timer.Early ->
    Array.iter
      (fun e -> fold (Vertex.of_endpoint verts (Graph.endpoint_of_node g e)) dist.(e))
      (Graph.endpoints g));
  bound

let design t = Timer.design t.timer
let ref_ff_params t = Cell.ff_params (Css_liberty.Library.flip_flop (Design.library (design t)))

(* Eq. (8) adapted to the NSO problem. Albrecht's parametric search
   drives the period variable down towards the maximum mean cycle, so a
   vertex fires the callback as soon as it could become critical at any
   period the search visits; with the period fixed, the equivalent test
   gives every vertex a cushion equal to the current worst negative
   slack — the depth to which the search would descend. The cushion is
   the same for every vertex of a round, so [iccss_round] computes it
   once. *)
let iccss_critical t ~cushion v =
  let corner = Seq_graph.corner t.graph in
  let d = design t in
  let period = Design.clock_period d in
  let p = ref_ff_params t in
  match corner with
  | Timer.Late ->
    t.bound.(v) > neg_infinity
    &&
    let l_u, c2q =
      match Vertex.ff_of t.verts v with
      | Some ff ->
        (Design.clock_latency d ff, (Cell.ff_params (Design.cell_master d ff)).Cell.clk_to_q)
      | None -> (0.0, 0.0)
    in
    period -. p.Cell.setup -. (l_u +. c2q +. t.bound.(v)) < cushion
  | Timer.Early ->
    t.bound.(v) < infinity
    &&
    let l_v, hold =
      match Vertex.ff_of t.verts v with
      | Some ff ->
        (Design.clock_latency d ff, (Cell.ff_params (Design.cell_master d ff)).Cell.hold)
      | None -> (0.0, 0.0)
    in
    let derate = (Timer.config t.timer).Timer.early_derate in
    (derate *. p.Cell.clk_to_q) +. t.bound.(v) -. (l_v +. hold) < cushion

(* The callback of IC-CSS: enumerate *all* outgoing sequential edges of
   the vertex — essential or not — which is exactly the over-extraction
   the paper removes. *)
let iccss_collect t v =
  let corner = Seq_graph.corner t.graph in
  let g = Timer.graph t.timer in
  let visited = ref 0 and walks = ref 0 in
  let cands =
    match corner with
    | Timer.Late ->
      let launchers =
        match Vertex.ff_of t.verts v with
        | Some ff -> [ Graph.Launch_ff ff ]
        | None ->
          (* the input supernode stands for every input port *)
          List.filter_map
            (fun s ->
              match Graph.launcher_of_node g s with
              | Graph.Launch_port _ as l -> Some l
              | Graph.Launch_ff _ -> None)
            (Array.to_list (Graph.sources g))
      in
      List.concat_map
        (fun launcher ->
          let root = Graph.source_of_launcher g launcher in
          let found, vis = Timer.cone t.timer corner ~root ~forward:true in
          visited := !visited + vis;
          incr walks;
          List.map
            (fun (node, delay) ->
              let endpoint = Graph.endpoint_of_node g node in
              let weight = Timer.edge_slack t.timer corner ~launcher ~endpoint ~delay in
              { c_launcher = launcher; c_endpoint = endpoint; c_delay = delay; c_weight = weight })
            found)
        launchers
    | Timer.Early ->
      let endpoints =
        match Vertex.ff_of t.verts v with
        | Some ff -> [ Graph.End_ff ff ]
        | None ->
          List.filter_map
            (fun e ->
              match Graph.endpoint_of_node g e with
              | Graph.End_port _ as ep -> Some ep
              | Graph.End_ff _ -> None)
            (Array.to_list (Graph.endpoints g))
      in
      List.concat_map
        (fun endpoint ->
          let root = Graph.node_of_endpoint g endpoint in
          let found, vis = Timer.cone t.timer corner ~root ~forward:false in
          visited := !visited + vis;
          incr walks;
          List.map
            (fun (node, delay) ->
              let launcher = Graph.launcher_of_node g node in
              let weight = Timer.edge_slack t.timer corner ~launcher ~endpoint ~delay in
              { c_launcher = launcher; c_endpoint = endpoint; c_delay = delay; c_weight = weight })
            found)
        endpoints
  in
  { it_cands = cands; it_visited = !visited; it_walks = !walks }

(* Fire the callback for every not-yet-expanded critical vertex. The
   criticality test reads only timer state and the one-time bound —
   never the growing graph — so the vertices are selected up front,
   against one endpoint scan for the round's cushion. *)
let iccss_round t =
  t.stats.rounds <- t.stats.rounds + 1;
  Obs.incr t.oc.o_rounds;
  let cushion = Float.max 0.0 (-.Timer.wns t.timer (Seq_graph.corner t.graph)) in
  let selected = ref [] in
  for v = 0 to Vertex.num t.verts - 1 do
    if (not t.expanded.(v)) && iccss_critical t ~cushion v then begin
      t.expanded.(v) <- true;
      selected := v :: !selected
    end
  done;
  let selected = Array.of_list (List.rev !selected) in
  let fired = Array.length selected in
  Obs.add t.oc.o_endpoints fired;
  ignore (walk t ~n:fired (fun i -> iccss_collect t selected.(i)));
  fired

(* Section III-E(ii): when [v]'s Eq. (11) cap binds, IC-CSS enumerates
   all cross-corner constraint edges of its flip-flop (its incoming
   early paths when optimizing late, and vice versa) and charges them
   to the extraction cost. *)
let cap_hit t v =
  if t.kind = Iccss then
    match Vertex.ff_of t.verts v with
    | None -> ()
    | Some ff ->
      let count, visited =
        match Seq_graph.corner t.graph with
        | Timer.Late ->
          let found, visited = Timer.cone_to_endpoint t.timer Timer.Early (Graph.End_ff ff) in
          (List.length found, visited)
        | Timer.Early ->
          let found, visited = Timer.cone_from_launcher t.timer Timer.Late (Graph.Launch_ff ff) in
          (List.length found, visited)
      in
      t.stats.cone_nodes <- t.stats.cone_nodes + visited;
      Obs.add t.oc.o_cone visited;
      t.stats.edges_extracted <- t.stats.edges_extracted + count;
      Obs.add t.o_constraint count

(* ------------------------------------------------------------------ *)
(* Unified entry point                                                 *)

let run ?(obs = Obs.null) ~engine:kind timer verts ~corner =
  let t =
    {
      kind;
      timer;
      verts;
      graph = Seq_graph.create verts ~corner;
      stats = fresh_stats ();
      oc = resolve_obs obs (engine_name kind);
      pending_first = 0;
      bound = (match kind with Iccss -> compute_bound timer verts corner | Full | Essential -> [||]);
      expanded =
        (match kind with
        | Iccss -> Array.make (Vertex.num verts) false
        | Full | Essential -> [||]);
      o_constraint =
        (match kind with
        | Iccss -> Obs.counter obs "extract.iccss.constraint_edges"
        | Full | Essential -> Obs.counter Obs.null "extract.unused");
    }
  in
  (match kind with Full -> t.pending_first <- full_extract t | Essential | Iccss -> ());
  t

(* ------------------------------------------------------------------ *)
(* Durable snapshots (checkpoint/resume)                               *)

(* Everything that makes an engine's future behaviour differ from a
   freshly created one: the partial graph's edges *in insertion order*
   (order defines the solvers' input order, hence bit-determinism), the
   cost accounting, Full's pending first-round count, and IC-CSS's
   one-time bound/expansion state — the bound is computed from arc
   delays at creation time and arc delays change when the flow resizes
   cells, so it must be restored, never recomputed. *)

type edge_snap = {
  es_launcher : Graph.launcher;
  es_endpoint : Graph.endpoint;
  es_delay : float;
  es_weight : float;
}

type snapshot = {
  sn_engine : engine;
  sn_edges : edge_snap list;
  sn_edges_extracted : int;
  sn_cone_nodes : int;
  sn_rounds : int;
  sn_pending_first : int;
  sn_bound : float array;
  sn_expanded : bool array;
}

let snapshot t =
  let edges = ref [] in
  Seq_graph.iter_edges t.graph (fun id ->
      let launcher = Seq_graph.launcher t.graph id in
      let es_delay = Seq_graph.delay t.graph id and es_weight = Seq_graph.weight t.graph id in
      let entry endpoint = { es_launcher = launcher; es_endpoint = endpoint; es_delay; es_weight } in
      edges := entry (Seq_graph.endpoint t.graph id) :: !edges;
      (* equal weight never rebinds: replaying these only indexes them *)
      List.iter
        (fun endpoint -> edges := entry endpoint :: !edges)
        (Seq_graph.collapsed_endpoints t.graph id));
  {
    sn_engine = t.kind;
    sn_edges = List.rev !edges;
    sn_edges_extracted = t.stats.edges_extracted;
    sn_cone_nodes = t.stats.cone_nodes;
    sn_rounds = t.stats.rounds;
    sn_pending_first = t.pending_first;
    sn_bound = Array.copy t.bound;
    sn_expanded = Array.copy t.expanded;
  }

let restore ?(obs = Obs.null) snap timer verts ~corner =
  let t =
    {
      kind = snap.sn_engine;
      timer;
      verts;
      graph = Seq_graph.create verts ~corner;
      stats = fresh_stats ();
      oc = resolve_obs obs (engine_name snap.sn_engine);
      pending_first = snap.sn_pending_first;
      bound = Array.copy snap.sn_bound;
      expanded = Array.copy snap.sn_expanded;
      o_constraint =
        (match snap.sn_engine with
        | Iccss -> Obs.counter obs "extract.iccss.constraint_edges"
        | Full | Essential -> Obs.counter Obs.null "extract.unused");
    }
  in
  List.iter
    (fun e ->
      ignore
        (Seq_graph.add_edge t.graph ~launcher:e.es_launcher ~endpoint:e.es_endpoint
           ~delay:e.es_delay ~weight:e.es_weight))
    snap.sn_edges;
  t.stats.edges_extracted <- snap.sn_edges_extracted;
  t.stats.edges_new <- Seq_graph.num_edges t.graph;
  t.stats.cone_nodes <- snap.sn_cone_nodes;
  t.stats.rounds <- snap.sn_rounds;
  t

let round ?limit t =
  match t.kind with
  | Full ->
    ignore limit;
    let added = t.pending_first in
    t.pending_first <- 0;
    { added; truncated = false }
  | Essential -> essential_round ?limit t
  | Iccss ->
    ignore limit;
    { added = iccss_round t; truncated = false }
