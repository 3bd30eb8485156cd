module Extract = Css_seqgraph.Extract
module Vertex = Css_seqgraph.Vertex
module Scheduler = Css_core.Scheduler
module Obs = Css_util.Obs

let extraction ?(obs = Obs.null) timer ~corner =
  let verts = Vertex.of_design (Css_sta.Timer.design timer) in
  let engine = Extract.run ~obs ~engine:Extract.Iccss timer verts ~corner in
  let extraction =
    {
      Scheduler.extract = (fun () -> Extract.round engine);
      graph = Extract.graph engine;
      on_cap_hit =
        (fun v ->
          match Vertex.ff_of verts v with
          | Some ff -> ignore (Extract.constraint_edges engine ff)
          | None -> ());
    }
  in
  (extraction, Extract.stats engine)

let run ?config ?(obs = Obs.null) timer ~corner =
  let ext, stats = extraction ~obs timer ~corner in
  let result = Scheduler.run ?config ~obs timer ext in
  (result, stats)
