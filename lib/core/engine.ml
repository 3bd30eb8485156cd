module Extract = Css_seqgraph.Extract
module Vertex = Css_seqgraph.Vertex
module Obs = Css_util.Obs

let create ~obs ~engine timer ~corner =
  Extract.run ~obs ~engine timer (Vertex.of_design (Css_sta.Timer.design timer)) ~corner

let ours ?(obs = Obs.null) timer ~corner =
  let eng = create ~obs ~engine:Extract.Essential timer ~corner in
  (Scheduler.extraction_of eng, Extract.stats eng)

let run ?config ?(obs = Obs.null) ~engine timer ~corner =
  let eng = create ~obs ~engine timer ~corner in
  let result = Scheduler.run ?config ~obs timer (Scheduler.extraction_of eng) in
  (result, Extract.stats eng)

let run_ours ?config ?obs timer ~corner = run ?config ?obs ~engine:Extract.Essential timer ~corner
