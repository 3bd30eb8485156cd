module Extract = Css_seqgraph.Extract
module Vertex = Css_seqgraph.Vertex
module Obs = Css_util.Obs

let ours ?(obs = Obs.null) timer ~corner =
  let verts = Vertex.of_design (Css_sta.Timer.design timer) in
  let engine = Extract.run ~obs ~engine:Extract.Essential timer verts ~corner in
  let extraction =
    {
      Scheduler.extract = (fun () -> Extract.round engine);
      graph = Extract.graph engine;
      on_cap_hit = (fun _ -> ());
    }
  in
  (extraction, Extract.stats engine)

let run_ours ?config ?(obs = Obs.null) timer ~corner =
  let extraction, stats = ours ~obs timer ~corner in
  let result = Scheduler.run ?config ~obs timer extraction in
  (result, stats)

let full ?(obs = Obs.null) timer ~corner =
  let verts = Vertex.of_design (Css_sta.Timer.design timer) in
  let engine = Extract.run ~obs ~engine:Extract.Full timer verts ~corner in
  let extraction =
    {
      Scheduler.extract = (fun () -> Extract.round engine);
      graph = Extract.graph engine;
      on_cap_hit = (fun _ -> ());
    }
  in
  (extraction, Extract.stats engine)

let run_full ?config ?(obs = Obs.null) timer ~corner =
  let extraction, stats = full ~obs timer ~corner in
  let result = Scheduler.run ?config ~obs timer extraction in
  (result, stats)
