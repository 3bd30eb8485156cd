module Timer = Css_sta.Timer
module Graph = Css_sta.Graph
module Design = Css_netlist.Design

module Histogram = struct
  type t = {
    edges : float array;  (* interior edges, ascending *)
    buckets : int array;  (* length = edges + 1 *)
  }

  let default_edges = [ -500.0; -200.0; -100.0; -50.0; -20.0; 0.0; 50.0; 200.0 ]

  let of_values ?(edges = default_edges) values =
    let edges = Array.of_list (List.sort_uniq compare edges) in
    let buckets = Array.make (Array.length edges + 1) 0 in
    List.iter
      (fun v ->
        let rec find i =
          if i >= Array.length edges || v < edges.(i) then i else find (i + 1)
        in
        let i = find 0 in
        buckets.(i) <- buckets.(i) + 1)
      values;
    { edges; buckets }

  let counts h =
    let n = Array.length h.buckets in
    List.init n (fun i ->
        let lo = if i = 0 then neg_infinity else h.edges.(i - 1) in
        let hi = if i = n - 1 then infinity else h.edges.(i) in
        (lo, hi, h.buckets.(i)))

  let render h =
    let buf = Buffer.create 512 in
    let maxc = Array.fold_left max 1 h.buckets in
    List.iter
      (fun (lo, hi, c) ->
        let bar = String.make (c * 40 / maxc) '#' in
        let fmt_edge x =
          if x = neg_infinity then "      -inf"
          else if x = infinity then "      +inf"
          else Printf.sprintf "%10.1f" x
        in
        Buffer.add_string buf
          (Printf.sprintf "  [%s, %s) %6d %s\n" (fmt_edge lo) (fmt_edge hi) c bar))
      (counts h);
    Buffer.contents buf
end

let slack_histogram timer corner =
  let g = Timer.graph timer in
  let slacks =
    Array.to_list (Graph.endpoints g)
    |> List.filter_map (fun n ->
           let s = Timer.slack timer corner n in
           if s < infinity then Some s else None)
  in
  Histogram.of_values slacks

let corner_name = function Timer.Early -> "early (hold)" | Timer.Late -> "late (setup)"

let timing_summary timer =
  let buf = Buffer.create 1024 in
  List.iter
    (fun corner ->
      Buffer.add_string buf
        (Printf.sprintf "-- %s --\nWNS %.2f  TNS %.2f  violations %d\n" (corner_name corner)
           (Timer.wns timer corner) (Timer.tns timer corner)
           (Timer.violations timer corner));
      Buffer.add_string buf (Histogram.render (slack_histogram timer corner));
      Buffer.add_char buf '\n')
    [ Timer.Late; Timer.Early ];
  Buffer.contents buf

let pin_name design pin =
  match Design.pin_owner design pin with
  | Design.Cell_pin (c, p) -> Printf.sprintf "%s/%s" (Design.cell_name design c) p
  | Design.Port_pin p -> Design.port_name design p

let worst_paths_report timer corner ~endpoints ~paths_per_endpoint =
  let design = Timer.design timer in
  let buf = Buffer.create 1024 in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  List.iter
    (fun (e, _) ->
      List.iter
        (fun (slack, pins) ->
          Buffer.add_string buf (Printf.sprintf "path (%s slack %.2f):\n" (corner_name corner) slack);
          List.iter
            (fun pin -> Buffer.add_string buf (Printf.sprintf "    %s\n" (pin_name design pin)))
            pins)
        (Timer.k_worst_paths timer corner e ~k:paths_per_endpoint))
    (take endpoints (Timer.violated_endpoints timer corner));
  Buffer.contents buf
