module Timer = Css_sta.Timer
module Design = Css_netlist.Design
module Extract = Css_seqgraph.Extract
module Vertex = Css_seqgraph.Vertex
module Seq_graph = Css_seqgraph.Seq_graph
module Bounds = Css_core.Bounds
module Obs = Css_util.Obs

type result = {
  target_latency : float array;
  sweeps : int;
  vertices : Vertex.t;
}

let max_sweeps = 50

(* Edge weights above -eps count as met; deltas at or below it as no move, ps. *)
let eps = 1e-6

let run ?(obs = Obs.null) timer =
  let design = Timer.design timer in
  let verts = Vertex.of_design design in
  let o_sweeps = Obs.counter obs "fpm.sweeps" in
  let eng = Extract.run ~obs ~engine:Extract.Full timer verts ~corner:Timer.Early in
  let graph = Extract.graph eng and stats = Extract.stats eng in
  let n = Vertex.num verts in
  (* Static caps, read once at extraction time — FPM does not refresh
     them, unlike the iterative algorithm. *)
  let cap = Array.init n (fun v -> Bounds.hard_cap timer verts Timer.Early v) in
  let assigned = Array.make n 0.0 in
  let fixed v = Vertex.is_super verts v in
  (* Jacobi-style relaxation on the static graph: each sweep raises every
     violated edge's destination (the launch FF) just enough, capped;
     weights follow Eq. (10). *)
  let sweeps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !sweeps < max_sweeps do
    incr sweeps;
    Obs.incr o_sweeps;
    let delta = Array.make n 0.0 in
    Seq_graph.iter_edges graph (fun id ->
        let w = Seq_graph.weight graph id in
        let d = Seq_graph.dst graph id in
        if w < -.eps && not (fixed d) then begin
          let need = -.w in
          let room = Float.max 0.0 (cap.(d) -. assigned.(d)) in
          let want = Float.min need room in
          if want > delta.(d) then delta.(d) <- want
        end);
    let moved = Array.exists (fun d -> d > eps) delta in
    if moved then begin
      for v = 0 to n - 1 do
        assigned.(v) <- assigned.(v) +. delta.(v)
      done;
      Seq_graph.apply_latency_delta graph delta;
      if Obs.enabled obs then
        Obs.snapshot obs ~label:"fpm.sweep"
          [
            ("sweep", Obs.Json.Int !sweeps);
            ( "max_delta",
              Obs.Json.Float (Array.fold_left Float.max 0.0 delta) );
          ]
    end
    else continue_ := false
  done;
  (* Apply the predictive skews and refresh timing once. *)
  let changed = ref [] in
  for v = 0 to n - 1 do
    if assigned.(v) > 0.0 then
      match Vertex.ff_of verts v with
      | Some ff ->
        Design.set_scheduled_latency design ff (Design.scheduled_latency design ff +. assigned.(v));
        changed := ff :: !changed
      | None -> ()
  done;
  Timer.update_latencies timer !changed;
  ({ target_latency = assigned; sweeps = !sweeps; vertices = verts }, stats)
