(* Multi-chain Howard policy iteration, run per cyclic strongly
   connected component (every vertex has an out-edge there). The policy
   graph is functional, so following it from any vertex reaches exactly
   one cycle; value determination labels each vertex with that cycle's
   mean (gain) and a relative bias, and the improvement step switches
   any edge that reaches a strictly smaller gain, or an equal gain with
   a smaller bias.

   Everything runs over a {!Csr.t} restricted to the component by its
   SCC id, in a workspace reused across calls: a policy is an edge
   position, and vertices keep their graph ids (the component's members
   in ascending order play the role of a renumbered subgraph). *)

let eps = 1e-9

(* Comparison tolerance scaled to the operands: with weights in the
   thousands of picoseconds an absolute 1e-9 sits below one ulp, and a
   policy switch justified by pure rounding noise can cycle forever
   (improvement flips an edge, value determination flips it back). All
   gain/bias tie tests therefore use a relative epsilon. *)
let tol a b = eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

type workspace = {
  scc : Scc.workspace;
  mutable policy : int array;  (* edge position *)
  mutable gain : float array;
  mutable bias : float array;
  mutable state : int array;  (* 0 unseen, 1 in progress, 2 done *)
  mutable path : int array;
  mutable seen : int array;
}

let ensure ws n =
  if Array.length ws.policy < n then begin
    let cap = max n (2 * Array.length ws.policy) in
    ws.policy <- Array.make cap 0;
    ws.gain <- Array.make cap 0.0;
    ws.bias <- Array.make cap 0.0;
    ws.state <- Array.make cap 0;
    ws.path <- Array.make cap 0;
    ws.seen <- Array.make cap 0
  end

let workspace ?(n = 0) () =
  let ws =
    {
      scc = Scc.workspace ~n ();
      policy = [||];
      gain = [||];
      bias = [||];
      state = [||];
      path = [||];
      seen = [||];
    }
  in
  ensure ws n;
  ws

(* Policy iteration on cyclic component [c] of the last SCC run;
   returns the component's minimum mean and its optimal cycle. *)
let min_mean_cycle_scc ws g c =
  let scc = ws.scc in
  let first = Scc.cyclic_first scc c and n = Scc.cyclic_len scc c in
  let id = Scc.cyclic_id scc c in
  let mem i = Scc.member scc (first + i) in
  let inside p = Scc.comp scc (Csr.dst g p) = id in
  let policy = ws.policy and gain = ws.gain and bias = ws.bias in
  let pdst u = Csr.dst g policy.(u) and pw u = Csr.weight g policy.(u) in
  (* initial policy: each member's first out-edge inside the component *)
  for i = 0 to n - 1 do
    let u = mem i in
    let p = ref (Csr.start g u) in
    while not (inside !p) do
      incr p
    done;
    policy.(u) <- !p;
    gain.(u) <- 0.0;
    bias.(u) <- 0.0
  done;
  (* value determination: walk the policy's functional graph *)
  let determine () =
    let state = ws.state and path = ws.path in
    for i = 0 to n - 1 do
      state.(mem i) <- 0
    done;
    for i = 0 to n - 1 do
      let s = mem i in
      if state.(s) = 0 then begin
        (* walk until we hit a processed vertex or close a cycle *)
        let depth = ref 0 in
        let v = ref s in
        while state.(!v) = 0 do
          state.(!v) <- 1;
          path.(!depth) <- !v;
          incr depth;
          v := pdst !v
        done;
        if state.(!v) = 1 then begin
          (* closed a new cycle at !v: compute its mean *)
          let total = ref 0.0 and len = ref 0 in
          let u = ref !v in
          let continue_ = ref true in
          while !continue_ do
            total := !total +. pw !u;
            incr len;
            u := pdst !u;
            if !u = !v then continue_ := false
          done;
          let lambda = !total /. float_of_int !len in
          (* biases around the cycle: fix bias(!v) = 0 *)
          gain.(!v) <- lambda;
          bias.(!v) <- 0.0;
          state.(!v) <- 2;
          (* walking forward: bias(prev) = w(prev,u) - lambda + bias(u),
             i.e. bias(u) = bias(prev) - (w(prev,u) - lambda) *)
          let u = ref (pdst !v) in
          let prev = ref !v in
          while !u <> !v do
            bias.(!u) <- bias.(!prev) -. (pw !prev -. lambda);
            gain.(!u) <- lambda;
            state.(!u) <- 2;
            prev := !u;
            u := pdst !u
          done
        end;
        (* unwind the walked path (suffix may already be done) *)
        for i = !depth - 1 downto 0 do
          let u = path.(i) in
          if state.(u) <> 2 then begin
            let succ = pdst u and w = pw u in
            gain.(u) <- gain.(succ);
            bias.(u) <- (w -. gain.(succ)) +. bias.(succ);
            state.(u) <- 2
          end
        done
      end
    done
  in
  (* policy improvement *)
  let improve () =
    let changed = ref false in
    for i = 0 to n - 1 do
      let u = mem i in
      for p = Csr.start g u to Csr.start g (u + 1) - 1 do
        if inside p then begin
          let v = Csr.dst g p and w = Csr.weight g p in
          let cand_bias = w -. gain.(u) +. bias.(v) in
          if
            gain.(v) < gain.(u) -. tol gain.(v) gain.(u)
            || (Float.abs (gain.(v) -. gain.(u)) <= tol gain.(v) gain.(u)
               && cand_bias < bias.(u) -. tol cand_bias bias.(u))
          then begin
            policy.(u) <- p;
            changed := true
          end
        end
      done
    done;
    !changed
  in
  let guard = ref 0 in
  determine ();
  while improve () && !guard < 10 * n * n do
    incr guard;
    determine ()
  done;
  (* the optimal policy's best cycle *)
  let best_v = ref (mem 0) in
  for i = 1 to n - 1 do
    if gain.(mem i) < gain.(!best_v) then best_v := mem i
  done;
  (* walk the policy from best_v to its cycle and report it *)
  let seen = ws.seen in
  for i = 0 to n - 1 do
    seen.(mem i) <- -1
  done;
  let v = ref !best_v in
  let steps = ref 0 in
  while seen.(!v) < 0 do
    seen.(!v) <- !steps;
    incr steps;
    v := pdst !v
  done;
  let start = !v in
  let cycle = ref [ start ] in
  let u = ref (pdst start) in
  while !u <> start do
    cycle := !u :: !cycle;
    u := pdst !u
  done;
  (gain.(!best_v), List.rev !cycle)

let min_mean_cycle_csr ws g =
  (* A single NaN or infinite weight silently corrupts every mean and
     bias it touches; reject the graph loudly instead, naming the first
     bad edge in {!Digraph.edges} order. *)
  for i = 0 to Csr.num_verts g - 1 do
    let u = Csr.vert g i in
    for p = Csr.start g u to Csr.start g (u + 1) - 1 do
      let w = Csr.weight g p in
      if not (Float.is_finite w) then
        invalid_arg
          (Printf.sprintf "Howard.min_mean_cycle: non-finite weight %g on edge %d->%d" w u
             (Csr.dst g p))
    done
  done;
  Scc.run ws.scc g;
  ensure ws (Csr.num_vertices g);
  let best = ref None in
  for c = 0 to Scc.num_cyclic ws.scc - 1 do
    let mean, cyc = min_mean_cycle_scc ws g c in
    match !best with
    | Some (b, _) when b <= mean -> ()
    | Some _ | None -> best := Some (mean, cyc)
  done;
  !best

let min_mean_cycle g = min_mean_cycle_csr (workspace ()) (Csr.of_digraph g)

let max_mean_cycle g =
  let neg =
    Digraph.make ~n:(Digraph.num_vertices g)
      (List.map (fun (u, v, w) -> (u, v, -.w)) (Digraph.edges g))
  in
  Option.map (fun (mean, cyc) -> (-.mean, cyc)) (min_mean_cycle neg)
