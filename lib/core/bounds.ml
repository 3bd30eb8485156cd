module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Vertex = Css_seqgraph.Vertex
module Design = Css_netlist.Design
module Csr = Css_mmwc.Csr

(* For the late phase the scheduling raise is on the capture side: its
   outgoing late paths (launched at its Q pin) are the same-corner margin
   and its incoming early paths (at its D pin) the cross-corner cap. The
   early phase is the mirror image. *)

let[@inline] q_slack timer corner ff =
  Timer.slack timer corner (Graph.ff_q_node (Timer.graph timer) ff)

let[@inline] d_slack timer corner ff =
  Timer.slack timer corner (Graph.ff_d_node (Timer.graph timer) ff)

let[@inline] ff_margin timer corner ff =
  match corner with
  | Timer.Late -> q_slack timer Timer.Late ff
  | Timer.Early -> d_slack timer Timer.Early ff

let[@inline] ff_cap timer corner ff =
  let s =
    match corner with
    | Timer.Late -> d_slack timer Timer.Early ff
    | Timer.Early -> q_slack timer Timer.Late ff
  in
  (* Eq. (5): the designer's absolute latency window also caps this
     iteration's increment *)
  let design = Timer.design timer in
  let hi = Design.latency_hi design ff in
  let room = if hi = infinity then infinity else hi -. Design.clock_latency design ff in
  Float.max 0.0 (Float.min s room)

let margin timer verts corner v =
  let ff = Vertex.ff_id verts v in
  if ff < 0 then 0.0 else ff_margin timer corner ff

let hard_cap timer verts corner v =
  let ff = Vertex.ff_id verts v in
  if ff < 0 then 0.0 else ff_cap timer corner ff

let fill timer verts corner g ~fixed ~margin ~hard_cap =
  let reads = ref 0 in
  for i = 0 to Csr.num_verts g - 1 do
    let v = Csr.vert g i in
    if not (fixed v) then begin
      let ff = Vertex.ff_id verts v in
      if ff < 0 then begin
        margin.(v) <- 0.0;
        hard_cap.(v) <- 0.0
      end
      else begin
        margin.(v) <- ff_margin timer corner ff;
        hard_cap.(v) <- ff_cap timer corner ff
      end;
      reads := !reads + 2
    end
  done;
  !reads
