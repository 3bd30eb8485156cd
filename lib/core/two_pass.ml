module Csr = Css_mmwc.Csr

type result = {
  l : float array;
  l_max : float array;
  w_avg : float array;
}

type workspace = {
  res : result;
  indeg : int array;
  order : int array;  (* topological order of the last run's vertices *)
  mutable n_order : int;
}

let workspace ~n =
  {
    res = { l = Array.make n 0.0; l_max = Array.make n 0.0; w_avg = Array.make n neg_infinity };
    indeg = Array.make n 0;
    order = Array.make n 0;
    n_order = 0;
  }

(* Numeric guard: an edge whose weight went NaN (stale recomputation
   over a corrupted delay) would poison every max/min it meets, and a
   NaN assignment silently becomes a bogus latency raise. Non-finite
   edges are dropped here; final assignments are clamped below. *)
let keep g p = not (Float.is_nan (Csr.weight g p))

(* Kahn topological order over [g]'s vertices, into [ws.order]. *)
let topo_order ws (g : Csr.t) =
  let indeg = ws.indeg and order = ws.order in
  let nv = Csr.num_verts g in
  for i = 0 to nv - 1 do
    indeg.(Csr.vert g i) <- 0
  done;
  for i = 0 to nv - 1 do
    let u = Csr.vert g i in
    for p = Csr.start g u to Csr.start g (u + 1) - 1 do
      if keep g p then indeg.(Csr.dst g p) <- indeg.(Csr.dst g p) + 1
    done
  done;
  let head = ref 0 and tail = ref 0 in
  for i = 0 to nv - 1 do
    let v = Csr.vert g i in
    if indeg.(v) = 0 then begin
      order.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    for p = Csr.start g u to Csr.start g (u + 1) - 1 do
      if keep g p then begin
        let d = Csr.dst g p in
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then begin
          order.(!tail) <- d;
          incr tail
        end
      end
    done
  done;
  ws.n_order <- !tail;
  if !tail <> nv then invalid_arg "Two_pass.run: essential edges contain a cycle"

(* Eq. (12): the averaged continuation through one successor (or the
   virtual endpoint) is a candidate for [w_avg.(u)]. Inlined so the
   floats stay unboxed. *)
let[@inline] consider w_avg u ~a ~b w_uv lmax_succ =
  let cand = (a +. w_uv +. lmax_succ) /. (b +. 1.0) in
  if cand > w_avg.(u) then w_avg.(u) <- cand

let run ws (g : Csr.t) ~arb ~fixed ~margin ~hard_cap =
  let { l; l_max; w_avg } = ws.res in
  (* undo the previous run: only its vertices hold anything *)
  for i = 0 to ws.n_order - 1 do
    let v = ws.order.(i) in
    l.(v) <- 0.0;
    l_max.(v) <- 0.0;
    w_avg.(v) <- neg_infinity
  done;
  ws.n_order <- 0;
  topo_order ws g;
  let order = ws.order and n = ws.n_order in
  (* Pass 1: reverse topological; Eq. (12)(13) plus clamps. *)
  for i = n - 1 downto 0 do
    let u = order.(i) in
    if fixed u then l_max.(u) <- 0.0
    else begin
      let a = Arborescence.alpha arb u and b = float_of_int (Arborescence.beta arb u) in
      (* extracted successors *)
      for p = Csr.start g u to Csr.start g (u + 1) - 1 do
        if keep g p then begin
          let d = Csr.dst g p in
          let lmax_succ = if fixed d then 0.0 else l_max.(d) in
          consider w_avg u ~a ~b (Csr.weight g p) lmax_succ
        end
      done;
      (* the virtual endpoint: the timer's same-corner outgoing margin
         (a NaN margin fails the [<] test and is ignored) *)
      let m = margin.(u) in
      if m < infinity then consider w_avg u ~a ~b m 0.0;
      let raw =
        if Arborescence.beta arb u = 0 then 0.0
        else if w_avg.(u) = infinity || w_avg.(u) = neg_infinity then
          (* no successor and no finite margin: the raise is unbounded
             from this side; only the hard cap constrains it *)
          infinity
        else (b *. w_avg.(u)) -. a
      in
      let capped = Float.min raw hard_cap.(u) in
      l_max.(u) <- (if Float.is_nan capped then 0.0 else Float.max 0.0 capped)
    end
  done;
  (* Pass 2: topological; Eq. (14) along arborescence parent edges. *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    if (not (fixed v)) && not (Arborescence.is_root arb v) then begin
      let p = Arborescence.parent arb v in
      let w = Arborescence.parent_weight arb v in
      let assigned = Float.min l_max.(v) (l.(p) -. w) in
      l.(v) <- (if Float.is_finite assigned then Float.max 0.0 assigned else 0.0)
    end
  done;
  ws.res
