module Seq_graph = Css_seqgraph.Seq_graph

type t = {
  parent : int array;
  parent_w : float array;
  alpha : float array;
  beta : int array;
  (* children as intrusive lists, newest first *)
  first_child : int array;
  next_sibling : int array;
  mutable skipped_cycles : int;
  (* scratch reused across builds *)
  mutable order : int array;  (* selected-edge indices, sorted by weight *)
  mutable attached : int array;  (* vertices given a parent, in order *)
  mutable n_attached : int;
  mutable chain : int array;  (* alpha/beta walk stack *)
  done_ : bool array;  (* alpha/beta final *)
}

let create ~n =
  {
    parent = Array.make n (-1);
    parent_w = Array.make n nan;
    alpha = Array.make n 0.0;
    beta = Array.make n 0;
    first_child = Array.make n (-1);
    next_sibling = Array.make n (-1);
    skipped_cycles = 0;
    order = [||];
    attached = Array.make n 0;
    n_attached = 0;
    chain = Array.make n 0;
    done_ = Array.make n false;
  }

(* Undo the previous build: only attached vertices and their parents
   hold anything. *)
let clear t =
  for i = 0 to t.n_attached - 1 do
    let v = t.attached.(i) in
    t.first_child.(t.parent.(v)) <- -1;
    t.parent.(v) <- -1;
    t.parent_w.(v) <- nan;
    t.alpha.(v) <- 0.0;
    t.beta.(v) <- 0;
    t.next_sibling.(v) <- -1;
    t.done_.(v) <- false
  done;
  t.n_attached <- 0;
  t.skipped_cycles <- 0

(* In-place heapsort of [order.(0 .. m-1)] by ascending weight, ties by
   edge index — the order a stable sort by weight gives. *)
let sort_by_weight order m (w : float array) =
  let before a b =
    let c = Float.compare w.(a) w.(b) in
    c < 0 || (c = 0 && a < b)
  in
  let swap i j =
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && before order.(l) order.(l + 1) then l + 1 else l in
      if before order.(i) order.(c) then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for len = m - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

let build_into t ~fixed ~out_weight (vw : Seq_graph.view) =
  clear t;
  let parent = t.parent in
  let is_ancestor anc v =
    (* walk the parent chain of [v]; tree depth is bounded by n *)
    let rec up x = x = anc || (parent.(x) >= 0 && up parent.(x)) in
    up v
  in
  (* ascending weight order, ties in insertion order, deterministically *)
  let m = vw.Seq_graph.v_n in
  if Array.length t.order < m then t.order <- Array.make (max m (2 * Array.length t.order)) 0;
  let order = t.order in
  for i = 0 to m - 1 do
    order.(i) <- i
  done;
  let w = vw.Seq_graph.v_w in
  sort_by_weight order m w;
  for i = 0 to m - 1 do
    let e = order.(i) in
    let u = vw.Seq_graph.v_src.(e) and v = vw.Seq_graph.v_dst.(e) in
    let we = w.(e) in
    if u <> v && (not (fixed v)) && parent.(v) < 0 && we < out_weight.(v) then begin
      if is_ancestor v u then t.skipped_cycles <- t.skipped_cycles + 1
      else begin
        parent.(v) <- u;
        t.parent_w.(v) <- we;
        t.next_sibling.(v) <- t.first_child.(u);
        t.first_child.(u) <- v;
        t.attached.(t.n_attached) <- v;
        t.n_attached <- t.n_attached + 1
      end
    end
  done;
  (* alpha/beta down each tree path: a vertex's values extend its
     parent's, so walk up to a root or a finished ancestor and unwind *)
  for i = 0 to t.n_attached - 1 do
    let depth = ref 0 in
    let x = ref t.attached.(i) in
    while parent.(!x) >= 0 && not t.done_.(!x) do
      t.chain.(!depth) <- !x;
      incr depth;
      x := parent.(!x)
    done;
    for j = !depth - 1 downto 0 do
      let v = t.chain.(j) in
      let u = parent.(v) in
      t.alpha.(v) <- t.alpha.(u) +. t.parent_w.(v);
      t.beta.(v) <- t.beta.(u) + 1;
      t.done_.(v) <- true
    done
  done

let parent t v = t.parent.(v)

let parent_weight t v =
  if t.parent.(v) < 0 then invalid_arg "Arborescence.parent_weight: root vertex";
  t.parent_w.(v)

let alpha t v = t.alpha.(v)
let beta t v = t.beta.(v)
let is_root t v = t.parent.(v) < 0

let children t v =
  let rec walk c = if c < 0 then [] else c :: walk t.next_sibling.(c) in
  walk t.first_child.(v)

let skipped_cycle_edges t = t.skipped_cycles
