module Ivec = Css_util.Ivec
module Fvec = Css_util.Fvec
module Timer = Css_sta.Timer
module Graph = Css_sta.Graph

type edge_id = int

(* Launchers and endpoints are stored int-encoded per edge, mirroring the
   timing graph's convention: [2*cell] for an FF, [2*port+1] for a port.
   The variant views are materialized on demand by [launcher]/[endpoint]. *)
let enc_launcher = function
  | Graph.Launch_ff ff -> 2 * ff
  | Graph.Launch_port p -> (2 * p) + 1

let enc_endpoint = function
  | Graph.End_ff ff -> 2 * ff
  | Graph.End_port p -> (2 * p) + 1

let dec_launcher enc =
  if enc land 1 = 0 then Graph.Launch_ff (enc lsr 1) else Graph.Launch_port (enc lsr 1)

let dec_endpoint enc =
  if enc land 1 = 0 then Graph.End_ff (enc lsr 1) else Graph.End_port (enc lsr 1)

type t = {
  verts : Vertex.t;
  corner : Timer.corner;
  nverts : int;  (* for the (src, dst) -> key packing *)
  esrc : Ivec.t;
  edst : Ivec.t;
  ew : Fvec.t;
  edelay : Fvec.t;
  elaunch : Ivec.t;  (* encoded launcher per edge *)
  eend : Ivec.t;  (* encoded endpoint per edge: the binding path's *)
  eseen : int list Css_util.Vec.t;  (* encoded endpoints landed on the edge, newest first *)
  by_pair : (int, edge_id) Hashtbl.t;  (* src * nverts + dst -> edge *)
  by_endpoint : (int, edge_id list) Hashtbl.t;  (* encoded endpoint *)
}

let create verts ~corner =
  let n = Vertex.num verts in
  {
    verts;
    corner;
    nverts = n;
    esrc = Ivec.create ();
    edst = Ivec.create ();
    ew = Fvec.create ();
    edelay = Fvec.create ();
    elaunch = Ivec.create ();
    eend = Ivec.create ();
    eseen = Css_util.Vec.create ();
    by_pair = Hashtbl.create 256;
    by_endpoint = Hashtbl.create 256;
  }

let corner t = t.corner
let vertices t = t.verts
let num_edges t = Ivec.length t.esrc

let src t id = Ivec.get t.esrc id
let dst t id = Ivec.get t.edst id
let weight t id = Fvec.get t.ew id
let delay t id = Fvec.get t.edelay id
let set_weight t id w = Fvec.set t.ew id w
let launcher t id = dec_launcher (Ivec.get t.elaunch id)
let endpoint t id = dec_endpoint (Ivec.get t.eend id)

(* Scheduling orientation: late edges run launch->capture, early edges
   capture->launch, so that d(weight)/d(latency(dst)) = +1 either way. *)
let orient t ~launcher ~endpoint =
  let lv = Vertex.of_launcher t.verts launcher in
  let ev = Vertex.of_endpoint t.verts endpoint in
  match t.corner with Timer.Late -> (lv, ev) | Timer.Early -> (ev, lv)

type outcome = Inserted | Rebound | Refreshed

(* Every endpoint whose paths landed on an edge is indexed there, not
   only the binding one: a port path that collapses onto another port's
   supernode pair is explained by that pair's (worse or equal) weight. *)
let index_endpoint t ee id =
  let seen = Css_util.Vec.get t.eseen id in
  if not (List.mem ee seen) then begin
    Css_util.Vec.set t.eseen id (ee :: seen);
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.by_endpoint ee) in
    Hashtbl.replace t.by_endpoint ee (id :: prev)
  end

let add_edge t ~launcher ~endpoint ~delay ~weight =
  let src, dst = orient t ~launcher ~endpoint in
  let key = (src * t.nverts) + dst in
  let el = enc_launcher launcher and ee = enc_endpoint endpoint in
  match Hashtbl.find_opt t.by_pair key with
  | Some id ->
    if Ivec.get t.elaunch id = el && Ivec.get t.eend id = ee then begin
      (* same timing path re-extracted: the new values are the current
         truth (placement or sizing may have changed the path delay) *)
      Fvec.set t.ew id weight;
      Fvec.set t.edelay id delay;
      Refreshed
    end
    else begin
      index_endpoint t ee id;
      if weight < Fvec.get t.ew id then begin
        (* a different launcher/endpoint pair collapsing onto the same
           supernode vertices binds the pair now: keep the worse path,
           labels and delay together, so [recompute_weight] re-derives
           the path that is stored *)
        Ivec.set t.elaunch id el;
        Ivec.set t.eend id ee;
        Fvec.set t.ew id weight;
        Fvec.set t.edelay id delay;
        Rebound
      end
      else Refreshed
    end
  | None ->
    let id = Ivec.push t.esrc src in
    ignore (Ivec.push t.edst dst);
    ignore (Fvec.push t.ew weight);
    ignore (Fvec.push t.edelay delay);
    ignore (Ivec.push t.elaunch el);
    ignore (Ivec.push t.eend ee);
    Hashtbl.replace t.by_pair key id;
    ignore (Css_util.Vec.push t.eseen []);
    index_endpoint t ee id;
    Inserted

let collapsed_endpoints t id =
  let binding = Ivec.get t.eend id in
  List.rev (Css_util.Vec.get t.eseen id)
  |> List.filter_map (fun ee -> if ee = binding then None else Some (dec_endpoint ee))

let find t ~src ~dst = Hashtbl.find_opt t.by_pair ((src * t.nverts) + dst)

let iter_edges t f =
  for id = 0 to num_edges t - 1 do
    f id
  done

let min_weight_from_endpoint t endpoint =
  match Hashtbl.find_opt t.by_endpoint (enc_endpoint endpoint) with
  | None -> infinity
  | Some ids -> List.fold_left (fun acc id -> Float.min acc (Fvec.get t.ew id)) infinity ids

let apply_latency_delta t deltas =
  for id = 0 to num_edges t - 1 do
    let s = Ivec.unsafe_get t.esrc id and d = Ivec.unsafe_get t.edst id in
    Fvec.unsafe_set t.ew id
      (Fvec.unsafe_get t.ew id +. Array.unsafe_get deltas d -. Array.unsafe_get deltas s)
  done

let recompute_weight t timer id =
  Timer.edge_slack timer t.corner ~launcher:(launcher t id) ~endpoint:(endpoint t id)
    ~delay:(Fvec.get t.edelay id)

let refresh_weights t timer =
  for id = 0 to num_edges t - 1 do
    Fvec.set t.ew id (recompute_weight t timer id)
  done

(* ------------------------------------------------------------------ *)
(* Packed views for the solvers                                        *)

type view = {
  v_n : int;
  v_src : int array;
  v_dst : int array;
  v_w : float array;
}

let select ?reuse t pred =
  let m = num_edges t in
  let src, dst, w =
    match reuse with
    | Some v when Array.length v.v_src >= m -> (v.v_src, v.v_dst, v.v_w)
    | Some _ | None ->
      let cap =
        match reuse with Some v -> max m (2 * Array.length v.v_src) | None -> max m 1
      in
      (Array.make cap 0, Array.make cap 0, Array.make cap 0.0)
  in
  let k = ref 0 in
  for id = 0 to m - 1 do
    if pred id then begin
      Array.unsafe_set src !k (Ivec.unsafe_get t.esrc id);
      Array.unsafe_set dst !k (Ivec.unsafe_get t.edst id);
      Array.unsafe_set w !k (Fvec.unsafe_get t.ew id);
      incr k
    end
  done;
  { v_n = !k; v_src = src; v_dst = dst; v_w = w }

let view_of_list triples =
  let n = List.length triples in
  let src = Array.make (max n 1) 0
  and dst = Array.make (max n 1) 0
  and w = Array.make (max n 1) 0.0 in
  List.iteri
    (fun i (s, d, wt) ->
      src.(i) <- s;
      dst.(i) <- d;
      w.(i) <- wt)
    triples;
  { v_n = n; v_src = src; v_dst = dst; v_w = w }
