module Csr = Css_mmwc.Csr
module Howard = Css_mmwc.Howard

type result = {
  members : Css_seqgraph.Vertex.id list;
  mean : float;
  increments : float array;
}

type workspace = {
  howard : Howard.workspace;
  increments : float array;
  mutable last : Css_seqgraph.Vertex.id list;  (* members with non-zero slots *)
}

let workspace ~n = { howard = Howard.workspace ~n (); increments = Array.make n 0.0; last = [] }

let schedule ws (g : Csr.t) ~fixed ~hard_cap =
  List.iter (fun v -> ws.increments.(v) <- 0.0) ws.last;
  ws.last <- [];
  (* Howard's policy iteration: the faster of the two solvers, and
     cross-validated against Karp in the test suite *)
  match Howard.min_mean_cycle_csr ws.howard g with
  | None -> None
  | Some (mean, cycle) ->
    let k = List.length cycle in
    let arr = Array.of_list cycle in
    (* weight of the cycle edge leaving position i: the lightest u -> v
       edge among u's out-edges (a sequential graph holds one per pair) *)
    let edge_weight i =
      let u = arr.(i) and v = arr.((i + 1) mod k) in
      let best = ref infinity in
      for p = Csr.start g u to Csr.start g (u + 1) - 1 do
        if Csr.dst g p = v && Csr.weight g p < !best then best := Csr.weight g p
      done;
      !best
    in
    (* Start the Eq. (9) walk at a fixed member if one exists so its
       increment is 0 before shifting. *)
    let start =
      let rec find i = if i >= k then 0 else if fixed arr.(i) then i else find (i + 1) in
      find 0
    in
    let raw = Array.make k 0.0 in
    let alpha = ref 0.0 in
    for j = 1 to k - 1 do
      let pos = (start + j - 1) mod k in
      alpha := !alpha +. edge_weight pos;
      raw.(j) <- (float_of_int j *. mean) -. !alpha
    done;
    (* Shift to non-negative, but never move fixed members off 0. *)
    let has_fixed = Array.exists (fun v -> fixed v) arr in
    let shift =
      if has_fixed then 0.0
      else
        let m = Array.fold_left Float.min infinity raw in
        if m < 0.0 then -.m else 0.0
    in
    let increments = ws.increments in
    for j = 0 to k - 1 do
      let v = arr.((start + j) mod k) in
      if not (fixed v) then
        increments.(v) <- Float.max 0.0 (Float.min (raw.(j) +. shift) (hard_cap v))
    done;
    ws.last <- cycle;
    Some { members = cycle; mean; increments }
