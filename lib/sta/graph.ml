module Vec = Css_util.Vec
module Ivec = Css_util.Ivec
module Design = Css_netlist.Design
module Cell = Css_liberty.Cell

type node = int

type launcher =
  | Launch_ff of Design.cell_id
  | Launch_port of Design.port_id

type endpoint =
  | End_ff of Design.cell_id
  | End_port of Design.port_id

type arc_kind =
  | Cell_arc of Css_liberty.Delay_model.t
  | Net_arc

(* Launchers and endpoints are stored int-encoded per node: -1 for a
   plain node, [2*cell] for an FF, [2*port+1] for a port. The variant
   views are materialized on demand by [launcher_of_node] /
   [endpoint_of_node]; the hot predicates [is_source] / [is_endpoint]
   are single int compares. *)
let enc_ff c = 2 * c
let enc_port p = (2 * p) + 1

type t = {
  design : Design.t;
  node_pin : Design.pin_id array;
  node_of_pin : int array;  (* -1 when excluded *)
  (* arcs, CSR in both directions *)
  a_from : int array;
  a_to : int array;
  a_kind : arc_kind array;
  out_start : int array;  (* node -> index into out_arcs *)
  out_arcs : int array;  (* arc ids grouped by from-node *)
  in_start : int array;
  in_arcs : int array;
  level : int array;
  topo : int array;
  sources : int array;
  endpoints : int array;
  node_launcher : int array;  (* encoded; -1 = not a source *)
  node_endpoint : int array;  (* encoded; -1 = not an endpoint *)
  ff_q : int array;  (* cell -> Q node, -1 for non-FFs; cells at build time *)
  ff_d : int array;  (* cell -> D node *)
}

let ck_pin = "CK"

(* A pin participates in the data graph unless it belongs to the clock
   network: LCB pins, FF CK pins, and the clock-root port pin. *)
let is_data_pin_fast d ~ck_tok p =
  let c = Design.pin_cell_id d p in
  if c < 0 then Design.clock_root_id d <> Design.pin_port_id d p
  else
    (not (Design.is_lcb d c))
    && not (Design.is_ff d c && Design.pin_name_id d p = ck_tok)

let build design =
  let npins = Design.num_pins design in
  let ck_tok = Design.pin_name_token design ck_pin in
  let node_of_pin = Array.make npins (-1) in
  let node_pin_v = Ivec.create ~capacity:npins () in
  for p = 0 to npins - 1 do
    if is_data_pin_fast design ~ck_tok p then node_of_pin.(p) <- Ivec.push node_pin_v p
  done;
  let node_pin = Ivec.to_array node_pin_v in
  let n = Array.length node_pin in
  (* arc accumulation in parallel columns — no per-arc tuples *)
  let arc_from = Ivec.create () and arc_to = Ivec.create () in
  let arc_kind_v = Vec.create () in
  let add_arc from_pin to_pin kind =
    let u = node_of_pin.(from_pin) and v = node_of_pin.(to_pin) in
    if u >= 0 && v >= 0 then begin
      ignore (Ivec.push arc_from u);
      ignore (Ivec.push arc_to v);
      ignore (Vec.push arc_kind_v kind)
    end
  in
  (* cell arcs *)
  Design.iter_cells design (fun c ->
      let master = Design.cell_master design c in
      match master.Cell.role with
      | Cell.Flip_flop _ | Cell.Clock_buffer _ ->
        (* FF CK->Q is modelled as a launch source, not an arc; LCBs are
           not part of the data graph at all. *)
        ()
      | Cell.Combinational ->
        List.iter
          (fun (arc : Cell.arc) ->
            add_arc (Design.cell_pin design c arc.from_pin)
              (Design.cell_pin design c arc.to_pin) (Cell_arc arc.model))
          master.Cell.arcs);
  (* net arcs *)
  Design.iter_nets design (fun net ->
      let drv = Design.net_driver_id design net in
      if drv >= 0 && node_of_pin.(drv) >= 0 then
        Design.iter_net_sinks design net (fun sink -> add_arc drv sink Net_arc));
  let m = Ivec.length arc_from in
  let a_from = Ivec.to_array arc_from and a_to = Ivec.to_array arc_to in
  let a_kind = Array.make m Net_arc in
  Vec.iteri (fun i k -> a_kind.(i) <- k) arc_kind_v;
  let csr key =
    let start = Array.make (n + 1) 0 in
    for a = 0 to m - 1 do
      start.(key.(a) + 1) <- start.(key.(a) + 1) + 1
    done;
    for i = 1 to n do
      start.(i) <- start.(i) + start.(i - 1)
    done;
    let cursor = Array.copy start in
    let ids = Array.make m 0 in
    for a = 0 to m - 1 do
      let k = key.(a) in
      ids.(cursor.(k)) <- a;
      cursor.(k) <- cursor.(k) + 1
    done;
    (start, ids)
  in
  let out_start, out_arcs = csr a_from in
  let in_start, in_arcs = csr a_to in
  (* Kahn levelization *)
  let indeg = Array.make n 0 in
  Array.iter (fun v -> indeg.(v) <- indeg.(v) + 1) a_to;
  let level = Array.make n 0 in
  let topo = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      topo.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let u = topo.(!head) in
    incr head;
    for i = out_start.(u) to out_start.(u + 1) - 1 do
      let a = out_arcs.(i) in
      let v = a_to.(a) in
      if level.(v) < level.(u) + 1 then level.(v) <- level.(u) + 1;
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        topo.(!tail) <- v;
        incr tail
      end
    done
  done;
  if !tail <> n then failwith "Graph.build: combinational cycle detected";
  (* classify sources and endpoints *)
  let node_launcher = Array.make (max n 1) (-1) in
  let node_endpoint = Array.make (max n 1) (-1) in
  let q_tok = Design.pin_name_token design "Q" in
  let d_tok = Design.pin_name_token design "D" in
  let sources = Ivec.create () and endpoints = Ivec.create () in
  let ff_q = Array.make (Design.num_cells design) (-1) in
  let ff_d = Array.make (Design.num_cells design) (-1) in
  Array.iteri
    (fun nd p ->
      let c = Design.pin_cell_id design p in
      if c < 0 then begin
        let port = Design.pin_port_id design p in
        if Design.port_dir design port = Design.In then begin
          node_launcher.(nd) <- enc_port port;
          ignore (Ivec.push sources nd)
        end
        else begin
          node_endpoint.(nd) <- enc_port port;
          ignore (Ivec.push endpoints nd)
        end
      end
      else if Design.is_ff design c then begin
        let tok = Design.pin_name_id design p in
        if tok = q_tok then begin
          node_launcher.(nd) <- enc_ff c;
          ff_q.(c) <- nd;
          ignore (Ivec.push sources nd)
        end
        else if tok = d_tok then begin
          node_endpoint.(nd) <- enc_ff c;
          ff_d.(c) <- nd;
          ignore (Ivec.push endpoints nd)
        end
      end)
    node_pin;
  {
    design;
    node_pin;
    node_of_pin;
    a_from;
    a_to;
    a_kind;
    out_start;
    out_arcs;
    in_start;
    in_arcs;
    level;
    topo;
    sources = Ivec.to_array sources;
    endpoints = Ivec.to_array endpoints;
    node_launcher;
    node_endpoint;
    ff_q;
    ff_d;
  }

let num_nodes t = Array.length t.node_pin
let num_arcs t = Array.length t.a_from

(* pins added after the build (CTS-inserted LCBs) are not in the graph *)
let node_of_pin t p =
  if p >= Array.length t.node_of_pin || t.node_of_pin.(p) < 0 then None
  else Some t.node_of_pin.(p)

let pin_of_node t n = t.node_pin.(n)
let level t n = t.level.(n)
let topo_order t = t.topo

let iter_out t n f =
  for i = t.out_start.(n) to t.out_start.(n + 1) - 1 do
    let a = t.out_arcs.(i) in
    f a t.a_to.(a)
  done

let iter_in t n f =
  for i = t.in_start.(n) to t.in_start.(n + 1) - 1 do
    let a = t.in_arcs.(i) in
    f a t.a_from.(a)
  done

let arc_kind t a = t.a_kind.(a)

let refresh_cell_arcs t c =
  let master = Design.cell_master t.design c in
  List.iter
    (fun (arc : Cell.arc) ->
      match
        ( t.node_of_pin.(Design.cell_pin t.design c arc.Cell.from_pin),
          t.node_of_pin.(Design.cell_pin t.design c arc.Cell.to_pin) )
      with
      | u, v when u >= 0 && v >= 0 ->
        for i = t.out_start.(u) to t.out_start.(u + 1) - 1 do
          let a = t.out_arcs.(i) in
          if t.a_to.(a) = v then
            match t.a_kind.(a) with
            | Cell_arc _ -> t.a_kind.(a) <- Cell_arc arc.Cell.model
            | Net_arc -> ()
        done
      | _ -> ())
    master.Cell.arcs
let arc_from t a = t.a_from.(a)
let arc_to t a = t.a_to.(a)
let sources t = t.sources
let endpoints t = t.endpoints

let decode_launcher enc =
  if enc land 1 = 0 then Launch_ff (enc lsr 1) else Launch_port (enc lsr 1)

let decode_endpoint enc = if enc land 1 = 0 then End_ff (enc lsr 1) else End_port (enc lsr 1)

let launcher_of_node t n =
  let enc = t.node_launcher.(n) in
  if enc < 0 then invalid_arg "Graph.launcher_of_node: not a source node"
  else decode_launcher enc

let endpoint_of_node t n =
  let enc = t.node_endpoint.(n) in
  if enc < 0 then invalid_arg "Graph.endpoint_of_node: not an endpoint node"
  else decode_endpoint enc

let is_source t n = t.node_launcher.(n) >= 0
let is_endpoint t n = t.node_endpoint.(n) >= 0

let node_of_pin_exn t p =
  if p >= Array.length t.node_of_pin || t.node_of_pin.(p) < 0 then
    invalid_arg "Graph: pin is not in the data graph"
  else t.node_of_pin.(p)

(* FFs present at the build resolve by one array read; any other cell
   (added later, e.g. by CTS, or not an FF) takes the pin-name lookup and
   fails there exactly as a lookup always has *)
let ff_q_node t ff =
  if ff < Array.length t.ff_q && t.ff_q.(ff) >= 0 then t.ff_q.(ff)
  else node_of_pin_exn t (Design.cell_pin t.design ff "Q")

let ff_d_node t ff =
  if ff < Array.length t.ff_d && t.ff_d.(ff) >= 0 then t.ff_d.(ff)
  else node_of_pin_exn t (Design.cell_pin t.design ff "D")

let source_of_launcher t = function
  | Launch_ff ff -> ff_q_node t ff
  | Launch_port port -> node_of_pin_exn t (Design.port_pin t.design port)

let node_of_endpoint t = function
  | End_ff ff -> ff_d_node t ff
  | End_port port -> node_of_pin_exn t (Design.port_pin t.design port)

(* Raw column access for the timer's allocation-free sweeps. *)
let node_pins t = t.node_pin
let launcher_codes t = t.node_launcher
let endpoint_codes t = t.node_endpoint
let csr_out t = (t.out_start, t.out_arcs)
let csr_in t = (t.in_start, t.in_arcs)
let arc_tails t = t.a_from
let arc_heads t = t.a_to
let arc_kinds t = t.a_kind
let levels t = t.level
