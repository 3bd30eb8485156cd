(* Iterative Tarjan over a {!Csr.t}: explicit frame arrays carry
   (vertex, next out-edge position) so deep sequential graphs cannot
   overflow the OCaml stack, and a workspace reused across runs keeps a
   run from allocating. Roots are the graph's touched vertices in
   ascending order, successors in edge order. *)

type workspace = {
  mutable index : int array;  (* -1 = unvisited *)
  mutable lowlink : int array;
  mutable on_stack : bool array;
  mutable comp : int array;
  mutable stack : int array;
  mutable sp : int;
  mutable frame_v : int array;
  mutable frame_p : int array;
  mutable ncomp : int;
  (* the cyclic components, in completion order, members ascending:
     component [c] is [members.(first.(c)) .. members.(first.(c+1) - 1)] *)
  mutable members : int array;
  mutable first : int array;
  mutable ncyclic : int;
  mutable cyclic_comp : int array;  (* component id of each cyclic one *)
}

let ensure ws n =
  if Array.length ws.index < n then begin
    let cap = max n (2 * Array.length ws.index) in
    ws.index <- Array.make cap (-1);
    ws.lowlink <- Array.make cap 0;
    ws.on_stack <- Array.make cap false;
    ws.comp <- Array.make cap (-1);
    ws.stack <- Array.make cap 0;
    ws.frame_v <- Array.make cap 0;
    ws.frame_p <- Array.make cap 0;
    ws.members <- Array.make cap 0;
    ws.first <- Array.make (cap + 1) 0;
    ws.cyclic_comp <- Array.make cap 0
  end

let workspace ?(n = 0) () =
  let ws =
    {
      index = [||];
      lowlink = [||];
      on_stack = [||];
      comp = [||];
      stack = [||];
      sp = 0;
      frame_v = [||];
      frame_p = [||];
      ncomp = 0;
      members = [||];
      first = [| 0 |];
      ncyclic = 0;
      cyclic_comp = [||];
    }
  in
  ensure ws n;
  ws

(* In-place heapsort of [a.(lo .. lo+len-1)], ascending. *)
let sort_range a lo len =
  let swap i j =
    let x = a.(lo + i) in
    a.(lo + i) <- a.(lo + j);
    a.(lo + j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
      if a.(lo + c) > a.(lo + i) then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for k = len - 1 downto 1 do
    swap 0 k;
    sift 0 k
  done

let has_self_loop g v =
  let found = ref false in
  for p = Csr.start g v to Csr.start g (v + 1) - 1 do
    if Csr.dst g p = v then found := true
  done;
  !found

(* Pops the component rooted at [v] off the vertex stack; a cyclic one
   (two or more vertices, or a self-loop) is appended to [members]. *)
let pop_component ws g v =
  let c = ws.ncomp in
  ws.ncomp <- c + 1;
  let base = ws.first.(ws.ncyclic) in
  let len = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    ws.sp <- ws.sp - 1;
    let w = ws.stack.(ws.sp) in
    ws.on_stack.(w) <- false;
    ws.comp.(w) <- c;
    ws.members.(base + !len) <- w;
    incr len;
    if w = v then continue_ := false
  done;
  if !len >= 2 || has_self_loop g v then begin
    sort_range ws.members base !len;
    ws.cyclic_comp.(ws.ncyclic) <- c;
    ws.ncyclic <- ws.ncyclic + 1;
    ws.first.(ws.ncyclic) <- base + !len
  end

let run ws g =
  ensure ws (Csr.num_vertices g);
  for i = 0 to Csr.num_verts g - 1 do
    let v = Csr.vert g i in
    ws.index.(v) <- -1;
    ws.on_stack.(v) <- false
  done;
  ws.sp <- 0;
  ws.ncomp <- 0;
  ws.ncyclic <- 0;
  ws.first.(0) <- 0;
  let next_index = ref 0 in
  let open_vertex v =
    ws.index.(v) <- !next_index;
    ws.lowlink.(v) <- !next_index;
    incr next_index;
    ws.stack.(ws.sp) <- v;
    ws.sp <- ws.sp + 1;
    ws.on_stack.(v) <- true
  in
  for i = 0 to Csr.num_verts g - 1 do
    let root = Csr.vert g i in
    if ws.index.(root) < 0 then begin
      open_vertex root;
      ws.frame_v.(0) <- root;
      ws.frame_p.(0) <- Csr.start g root;
      let depth = ref 1 in
      while !depth > 0 do
        let top = !depth - 1 in
        let v = ws.frame_v.(top) and p = ws.frame_p.(top) in
        if p < Csr.start g (v + 1) then begin
          ws.frame_p.(top) <- p + 1;
          let w = Csr.dst g p in
          if ws.index.(w) < 0 then begin
            open_vertex w;
            ws.frame_v.(!depth) <- w;
            ws.frame_p.(!depth) <- Csr.start g w;
            incr depth
          end
          else if ws.on_stack.(w) && ws.index.(w) < ws.lowlink.(v) then
            ws.lowlink.(v) <- ws.index.(w)
        end
        else begin
          decr depth;
          if top > 0 then begin
            let parent = ws.frame_v.(top - 1) in
            if ws.lowlink.(v) < ws.lowlink.(parent) then ws.lowlink.(parent) <- ws.lowlink.(v)
          end;
          if ws.lowlink.(v) = ws.index.(v) then pop_component ws g v
        end
      done
    end
  done

let num_cyclic ws = ws.ncyclic
let cyclic_first ws c = ws.first.(c)
let cyclic_len ws c = ws.first.(c + 1) - ws.first.(c)
let cyclic_id ws c = ws.cyclic_comp.(c)
let member ws i = ws.members.(i)
let comp ws v = ws.comp.(v)

let components g =
  let csr = Csr.of_digraph g in
  let ws = workspace () in
  run ws csr;
  let n = Digraph.num_vertices g in
  (Array.sub ws.comp 0 n, ws.ncomp)

let nontrivial g =
  let csr = Csr.of_digraph g in
  let ws = workspace () in
  run ws csr;
  List.init ws.ncyclic (fun c ->
      List.init (cyclic_len ws c) (fun i -> ws.members.(cyclic_first ws c + i)))
