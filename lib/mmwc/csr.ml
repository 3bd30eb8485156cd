type t = {
  mutable n : int;
  mutable start : int array;  (* n + 1 *)
  mutable dst : int array;  (* by position *)
  mutable w : float array;
  mutable cursor : int array;  (* fill scratch, n *)
  mutable verts : int array;  (* touched vertices, ascending *)
  mutable nverts : int;
}

let create () =
  {
    n = 0;
    start = [| 0 |];
    dst = [||];
    w = [||];
    cursor = [||];
    verts = [||];
    nverts = 0;
  }

let grow_int a len = if Array.length a >= len then a else Array.make (max len (2 * Array.length a)) 0

let grow_float a len =
  if Array.length a >= len then a else Array.make (max len (2 * Array.length a)) 0.0

let reserve t ~n ~m =
  t.start <- grow_int t.start (n + 1);
  t.cursor <- grow_int t.cursor n;
  t.verts <- grow_int t.verts n;
  t.dst <- grow_int t.dst m;
  t.w <- grow_float t.w m

(* Sizes the columns for [n] vertices and [m] edges and zeroes the
   counts: the caller adds each kept edge's out-degree into
   [start.(u + 1)] and in-degree into [cursor.(v)], then calls
   [finish_counts] and places the edges. *)
let reset t ~n ~m =
  t.n <- n;
  reserve t ~n ~m;
  Array.fill t.start 0 (n + 1) 0;
  (* [cursor] doubles as the in-degree count until the prefix sum *)
  Array.fill t.cursor 0 n 0

let finish_counts t ~all =
  let n = t.n in
  t.nverts <- 0;
  for u = 0 to n - 1 do
    if all || t.start.(u + 1) > 0 || t.cursor.(u) > 0 then begin
      t.verts.(t.nverts) <- u;
      t.nverts <- t.nverts + 1
    end
  done;
  for u = 1 to n do
    t.start.(u) <- t.start.(u) + t.start.(u - 1)
  done;
  Array.blit t.start 0 t.cursor 0 n

(* Self-loops are dropped: every [fill] caller solves over cycles of two
   or more vertices (a one-vertex cycle is one no skew can change). *)
let fill t ~n ~m ~src ~dst ~w =
  reset t ~n ~m;
  let keep i = src.(i) <> dst.(i) in
  for i = 0 to m - 1 do
    let u = src.(i) and v = dst.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Csr.fill: edge (%d,%d) out of range [0,%d)" u v n);
    if keep i then begin
      t.start.(u + 1) <- t.start.(u + 1) + 1;
      t.cursor.(v) <- t.cursor.(v) + 1
    end
  done;
  finish_counts t ~all:false;
  for i = 0 to m - 1 do
    if keep i then begin
      let u = src.(i) in
      let p = t.cursor.(u) in
      t.dst.(p) <- dst.(i);
      t.w.(p) <- w.(i);
      t.cursor.(u) <- p + 1
    end
  done

let of_digraph g =
  let t = create () in
  let n = Digraph.num_vertices g in
  reset t ~n ~m:(Digraph.num_edges g);
  for u = 0 to n - 1 do
    Digraph.iter_out g u (fun v _ ->
        t.start.(u + 1) <- t.start.(u + 1) + 1;
        t.cursor.(v) <- t.cursor.(v) + 1)
  done;
  finish_counts t ~all:true;
  (* [iter_out] runs newest edge first: fill each range from its end *)
  for u = 0 to n - 1 do
    let p = ref t.start.(u + 1) in
    Digraph.iter_out g u (fun v w ->
        decr p;
        t.dst.(!p) <- v;
        t.w.(!p) <- w)
  done;
  t

let num_vertices t = t.n
let start t u = Array.unsafe_get t.start u
let dst t p = Array.unsafe_get t.dst p
let weight t p = Array.unsafe_get t.w p
let num_verts t = t.nverts
let vert t i = Array.unsafe_get t.verts i
