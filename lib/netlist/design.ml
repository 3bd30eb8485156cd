module Vec = Css_util.Vec
module Ivec = Css_util.Ivec
module Fvec = Css_util.Fvec
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Cell = Css_liberty.Cell
module Library = Css_liberty.Library
module Wire = Css_liberty.Wire

type cell_id = int
type pin_id = int
type net_id = int
type port_id = int

type port_dir =
  | In
  | Out

type pin_owner =
  | Cell_pin of cell_id * string
  | Port_pin of port_id

(* Cell role cache, so hot loops classify instances without chasing the
   master-cell pointer. *)
let role_comb = 0
let role_ff = 1
let role_lcb = 2

(* Struct-of-arrays storage: every entity attribute is its own dense
   column indexed by the entity id. Int columns use -1 as the "none"
   sentinel instead of option (no boxing); float columns are monomorphic
   flat arrays (no boxing on read). See docs/PERFORMANCE.md. *)
type t = {
  name : string;
  library : Library.t;
  die : Rect.t;
  clock_period : float;
  (* cells *)
  cell_master : Cell.t Vec.t;
  cell_name : string Vec.t;
  cell_x : Fvec.t;
  cell_y : Fvec.t;
  cell_orig_x : Fvec.t;
  cell_orig_y : Fvec.t;
  cell_first_pin : Ivec.t;  (* pins of a cell are contiguous: [first, first+count) *)
  cell_pin_count : Ivec.t;
  cell_role : Ivec.t;
  cell_sched_latency : Fvec.t;
  (* ports *)
  port_name : string Vec.t;
  port_dir : port_dir Vec.t;
  port_x : Fvec.t;
  port_y : Fvec.t;
  port_pin : Ivec.t;
  (* pins *)
  pin_cell : Ivec.t;  (* owning cell, -1 for port pins *)
  pin_port : Ivec.t;  (* owning port, -1 for cell pins *)
  pin_name_tok : Ivec.t;  (* interned master pin name, -1 for port pins *)
  pin_out : Ivec.t;  (* 1 when the pin is a signal source *)
  pin_net : Ivec.t;  (* -1 when unconnected *)
  (* pin-name interning *)
  pin_name_of_tok : string Vec.t;
  tok_of_pin_name : (string, int) Hashtbl.t;
  (* each master's input and output pin-name tokens, found by physical
     equality on the master, so [add_cell] interns a master's names once *)
  mutable master_toks : (Cell.t * int array * int array) list;
  (* nets *)
  net_name : string Vec.t;
  net_driver : Ivec.t;  (* -1 when absent *)
  net_sinks : Ivec.t Vec.t;
  (* clock *)
  mutable clock_root : port_id;  (* -1 when undeclared *)
  mutable ff_cache : cell_id array option;
  mutable lcb_cache : cell_id array option;
  mutable ff_index_cache : int array option;  (* cell -> dense FF ordinal, -1 *)
  latency_bounds : (cell_id, float * float) Hashtbl.t;
  cell_changes : marks;
  net_changes : marks;
  (* per-net columns, current for every net below their length that
     [nets_stale] does not mark (nets added since lie past their end):
     the net's HPWL, and 1 when [check] has something to say about it *)
  mutable hpwl : float array;
  mutable net_faulty : Bytes.t;
  nets_stale : marks;
  (* the clock pins' name tokens, -1 until a master declares them *)
  mutable ck_tok : int;
  mutable cki_tok : int;
  mutable cko_tok : int;
}

(* The change set: kind bits per id, and a stack of the ids marked since
   the last [take_changes], which sizes both to the design's ids: marking
   allocates nothing, and ids beyond them (in a design never taken from,
   or added since) are not marked. *)
and marks = { mutable bits : Bytes.t; mutable stack : int array; mutable touched : int }

(* kind bits: a cell's line (position, master), latency, bounds and
   anchor; a net's sinks; a net whose per-net columns are stale *)
let k_line, k_latency, k_bounds, k_anchor, k_sinks, k_stale = (1, 2, 4, 8, 1, 1)

let no_marks () = { bits = Bytes.empty; stack = [||]; touched = 0 }

let mark m id kind =
  if id < Bytes.length m.bits then begin
    let b = Char.code (Bytes.get m.bits id) in
    if b = 0 then begin
      m.stack.(m.touched) <- id;
      m.touched <- m.touched + 1
    end;
    Bytes.set m.bits id (Char.unsafe_chr (b lor kind))
  end

(* bit equality without boxing: equal and, for zeros, of one sign; a NaN
   never matches, so writing one always marks *)
let[@inline] same_bits (a : float) (b : float) = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

let ck_pin_name = "CK"
let lcb_in_pin_name = "CKI"
let lcb_out_pin_name = "CKO"

let lcb_fanout_limit = 50
let max_displacement = 400.0
let min_realized_target = 0.25

let create ~name ~library ~die ~clock_period () =
  {
    name;
    library;
    die;
    clock_period;
    cell_master = Vec.create ();
    cell_name = Vec.create ();
    cell_x = Fvec.create ();
    cell_y = Fvec.create ();
    cell_orig_x = Fvec.create ();
    cell_orig_y = Fvec.create ();
    cell_first_pin = Ivec.create ();
    cell_pin_count = Ivec.create ();
    cell_role = Ivec.create ();
    cell_sched_latency = Fvec.create ();
    port_name = Vec.create ();
    port_dir = Vec.create ();
    port_x = Fvec.create ();
    port_y = Fvec.create ();
    port_pin = Ivec.create ();
    pin_cell = Ivec.create ();
    pin_port = Ivec.create ();
    pin_name_tok = Ivec.create ();
    pin_out = Ivec.create ();
    pin_net = Ivec.create ();
    pin_name_of_tok = Vec.create ();
    tok_of_pin_name = Hashtbl.create 16;
    master_toks = [];
    net_name = Vec.create ();
    net_driver = Ivec.create ();
    net_sinks = Vec.create ();
    clock_root = -1;
    ff_cache = None;
    lcb_cache = None;
    ff_index_cache = None;
    latency_bounds = Hashtbl.create 16;
    cell_changes = no_marks ();
    net_changes = no_marks ();
    hpwl = [||];
    net_faulty = Bytes.empty;
    nets_stale = no_marks ();
    ck_tok = -1;
    cki_tok = -1;
    cko_tok = -1;
  }

let intern_pin_name t name =
  match Hashtbl.find_opt t.tok_of_pin_name name with
  | Some tok -> tok
  | None ->
    let tok = Vec.push t.pin_name_of_tok name in
    Hashtbl.replace t.tok_of_pin_name name tok;
    if name = ck_pin_name then t.ck_tok <- tok
    else if name = lcb_in_pin_name then t.cki_tok <- tok
    else if name = lcb_out_pin_name then t.cko_tok <- tok;
    tok

let master_toks t cell =
  match List.find (fun (c, _, _) -> c == cell) t.master_toks with
  | entry -> entry
  | exception Not_found ->
    let intern names = Array.of_list (List.map (intern_pin_name t) names) in
    (* inputs first: a new name's token is its rank of first appearance *)
    let ins = intern cell.Cell.inputs in
    let entry = (cell, ins, intern cell.Cell.outputs) in
    t.master_toks <- entry :: t.master_toks;
    entry

let pin_name_token t name =
  match Hashtbl.find t.tok_of_pin_name name with tok -> tok | exception Not_found -> -1

let new_pin t ~cell ~port ~tok ~out =
  let id = Ivec.push t.pin_cell cell in
  ignore (Ivec.push t.pin_port port);
  ignore (Ivec.push t.pin_name_tok tok);
  ignore (Ivec.push t.pin_out (if out then 1 else 0));
  ignore (Ivec.push t.pin_net (-1));
  id

let add_port t ~name ~dir ~pos =
  let id = Vec.push t.port_name name in
  ignore (Vec.push t.port_dir dir);
  ignore (Fvec.push t.port_x pos.Point.x);
  ignore (Fvec.push t.port_y pos.Point.y);
  (* an input port is a signal source of its net *)
  let pin = new_pin t ~cell:(-1) ~port:id ~tok:(-1) ~out:(dir = In) in
  ignore (Ivec.push t.port_pin pin);
  id

let role_of_cell cell =
  match cell.Cell.role with
  | Cell.Combinational -> role_comb
  | Cell.Flip_flop _ -> role_ff
  | Cell.Clock_buffer _ -> role_lcb

let add_cell t ~name ~master ~pos =
  let cell = Library.find t.library master in
  let id = Vec.push t.cell_master cell in
  ignore (Vec.push t.cell_name name);
  ignore (Fvec.push t.cell_x pos.Point.x);
  ignore (Fvec.push t.cell_y pos.Point.y);
  ignore (Fvec.push t.cell_orig_x pos.Point.x);
  ignore (Fvec.push t.cell_orig_y pos.Point.y);
  ignore (Ivec.push t.cell_role (role_of_cell cell));
  ignore (Fvec.push t.cell_sched_latency 0.0);
  ignore (Ivec.push t.cell_first_pin (Ivec.length t.pin_cell));
  (* pin ids are assigned in inputs-then-outputs order, matching the
     master's declaration — the order Io serialization relies on *)
  let _, ins, outs = master_toks t cell in
  Array.iter (fun tok -> ignore (new_pin t ~cell:id ~port:(-1) ~tok ~out:false)) ins;
  Array.iter (fun tok -> ignore (new_pin t ~cell:id ~port:(-1) ~tok ~out:true)) outs;
  ignore (Ivec.push t.cell_pin_count (Ivec.length t.pin_cell - Ivec.get t.cell_first_pin id));
  t.ff_cache <- None;
  t.lcb_cache <- None;
  t.ff_index_cache <- None;
  id

let[@inline] pin_cell_id t p = Ivec.get t.pin_cell p
let[@inline] pin_port_id t p = Ivec.get t.pin_port p
let[@inline] pin_name_id t p = Ivec.get t.pin_name_tok p

let pin_owner t p =
  let c = Ivec.get t.pin_cell p in
  if c >= 0 then Cell_pin (c, Vec.get t.pin_name_of_tok (Ivec.get t.pin_name_tok p))
  else Port_pin (Ivec.get t.pin_port p)

let[@inline] pin_net_id t p = Ivec.get t.pin_net p

let pin_net t p =
  let n = Ivec.get t.pin_net p in
  if n < 0 then None else Some n

let cell_master t c = Vec.get t.cell_master c

let[@inline] pin_is_output t p = Ivec.get t.pin_out p = 1

let add_net t ~name ~driver ~sinks =
  if not (pin_is_output t driver) then
    invalid_arg (Printf.sprintf "Design.add_net %s: driver pin is not a signal source" name);
  List.iter
    (fun p ->
      if pin_net_id t p >= 0 then
        invalid_arg (Printf.sprintf "Design.add_net %s: pin already connected" name))
    (driver :: sinks);
  let id = Vec.push t.net_name name in
  ignore (Ivec.push t.net_driver driver);
  ignore (Vec.push t.net_sinks (Ivec.of_list sinks));
  Ivec.set t.pin_net driver id;
  List.iter (fun p -> Ivec.set t.pin_net p id) sinks;
  id

let net_add_sink t n p =
  if pin_net_id t p >= 0 then invalid_arg "Design.net_add_sink: pin already connected";
  if pin_is_output t p then invalid_arg "Design.net_add_sink: pin is a signal source";
  ignore (Ivec.push (Vec.get t.net_sinks n) p);
  Ivec.set t.pin_net p n;
  mark t.net_changes n k_sinks;
  mark t.nets_stale n k_stale

(* The old sinks still pointing at [n] leave it; a joining pin taken
   from another net marks that net's columns, whose verdict it turns. *)
let set_net_sinks t n sinks =
  if List.exists (pin_is_output t) sinks then
    invalid_arg "Design.set_net_sinks: sink pin is a signal source";
  Ivec.iter (fun p -> if pin_net_id t p = n then Ivec.set t.pin_net p (-1)) (Vec.get t.net_sinks n);
  List.iter
    (fun p ->
      let old = pin_net_id t p in
      if old >= 0 && old <> n then mark t.nets_stale old k_stale;
      Ivec.set t.pin_net p n)
    sinks;
  Vec.set t.net_sinks n (Ivec.of_list sinks);
  mark t.net_changes n k_sinks;
  mark t.nets_stale n k_stale

let set_clock_root t port = t.clock_root <- port

let name t = t.name
let library t = t.library
let die t = t.die
let clock_period t = t.clock_period
let num_cells t = Vec.length t.cell_master
let num_pins t = Ivec.length t.pin_cell
let num_nets t = Vec.length t.net_name
let num_ports t = Vec.length t.port_name
let cell_name t c = Vec.get t.cell_name c
let[@inline] cell_x t c = Fvec.get t.cell_x c
let[@inline] cell_y t c = Fvec.get t.cell_y c
let cell_pos t c = Point.make (Fvec.get t.cell_x c) (Fvec.get t.cell_y c)
let positions t = (Fvec.to_array t.cell_x, Fvec.to_array t.cell_y)
let[@inline] cell_orig_x t c = Fvec.get t.cell_orig_x c
let[@inline] cell_orig_y t c = Fvec.get t.cell_orig_y c
let cell_orig_pos t c = Point.make (Fvec.get t.cell_orig_x c) (Fvec.get t.cell_orig_y c)

(* a point column pair's write, marked unless it holds [pos] already;
   true when it wrote *)
let set_point xs ys t c kind (pos : Point.t) =
  let moved = not (same_bits (Fvec.get xs c) pos.Point.x && same_bits (Fvec.get ys c) pos.Point.y) in
  if moved then begin
    Fvec.set xs c pos.Point.x;
    Fvec.set ys c pos.Point.y;
    mark t.cell_changes c kind
  end;
  moved

let move_cell t c pos =
  if set_point t.cell_x t.cell_y t c k_line pos then begin
    let first = Ivec.get t.cell_first_pin c in
    for p = first to first + Ivec.get t.cell_pin_count c - 1 do
      let n = Ivec.get t.pin_net p in
      if n >= 0 then mark t.nets_stale n k_stale
    done
  end

let set_cell_orig_pos t c pos = ignore (set_point t.cell_orig_x t.cell_orig_y t c k_anchor pos)

let swap_master t c master =
  let next = Library.find t.library master in
  let current = cell_master t c in
  if not (Cell.same_interface current next) then
    invalid_arg
      (Printf.sprintf "Design.swap_master: %s and %s have different interfaces"
         current.Cell.name next.Cell.name);
  if next != current then begin
    Vec.set t.cell_master c next;
    mark t.cell_changes c k_line
  end

(* the pin of cell [c] named by token [tok], or -1 *)
let cell_pin_of_token t c tok =
  let first = Ivec.get t.cell_first_pin c in
  let stop = first + Ivec.get t.cell_pin_count c in
  let i = ref first in
  while !i < stop && Ivec.unsafe_get t.pin_name_tok !i <> tok do
    incr i
  done;
  if !i < stop then !i else -1

let cell_pin_of_token_exn t c tok =
  let p = cell_pin_of_token t c tok in
  if p < 0 then raise Not_found else p

let cell_pin t c pin_name = cell_pin_of_token_exn t c (pin_name_token t pin_name)

let port_name t p = Vec.get t.port_name p
let port_dir t p = Vec.get t.port_dir p
let port_pos t p = Point.make (Fvec.get t.port_x p) (Fvec.get t.port_y p)
let port_pin t p = Ivec.get t.port_pin p

let[@inline] pin_x t p =
  let c = Ivec.get t.pin_cell p in
  if c >= 0 then Fvec.get t.cell_x c else Fvec.get t.port_x (Ivec.get t.pin_port p)

let[@inline] pin_y t p =
  let c = Ivec.get t.pin_cell p in
  if c >= 0 then Fvec.get t.cell_y c else Fvec.get t.port_y (Ivec.get t.pin_port p)

let pin_pos t p = Point.make (pin_x t p) (pin_y t p)

let net_name t n = Vec.get t.net_name n

let[@inline] net_driver_id t n = Ivec.get t.net_driver n

let net_driver t n =
  let d = Ivec.get t.net_driver n in
  if d < 0 then None else Some d

let net_sinks t n = Ivec.to_list (Vec.get t.net_sinks n)
let[@inline] net_fanout t n = Ivec.length (Vec.get t.net_sinks n)
let[@inline] net_sink t n i = Ivec.get (Vec.get t.net_sinks n) i
let iter_net_sinks t n f = Ivec.iter f (Vec.get t.net_sinks n)

let iter_cells t f =
  for c = 0 to num_cells t - 1 do
    f c
  done

let iter_nets t f =
  for n = 0 to num_nets t - 1 do
    f n
  done

let iter_ports t f =
  for p = 0 to num_ports t - 1 do
    f p
  done

let[@inline] is_ff t c = Ivec.get t.cell_role c = role_ff

let[@inline] is_lcb t c = Ivec.get t.cell_role c = role_lcb

let collect t pred =
  let acc = Ivec.create () in
  iter_cells t (fun c -> if pred c then ignore (Ivec.push acc c));
  Ivec.to_array acc

let ffs t =
  match t.ff_cache with
  | Some a -> a
  | None ->
    let a = collect t (is_ff t) in
    t.ff_cache <- Some a;
    a

let lcbs t =
  match t.lcb_cache with
  | Some a -> a
  | None ->
    let a = collect t (is_lcb t) in
    t.lcb_cache <- Some a;
    a

let ff_index t c =
  let index =
    match t.ff_index_cache with
    | Some a -> a
    | None ->
      let a = Array.make (max (num_cells t) 1) (-1) in
      Array.iteri (fun i ff -> a.(ff) <- i) (ffs t);
      t.ff_index_cache <- Some a;
      a
  in
  index.(c)

let[@inline] clock_root_id t = t.clock_root

let clock_root t = if t.clock_root < 0 then None else Some t.clock_root

(* the LCB driving [ff]'s clock pin, or -1: no option, no exception *)
let lcb_id_of_ff t ff =
  let ck = cell_pin_of_token t ff t.ck_tok in
  let net = if ck < 0 then -1 else pin_net_id t ck in
  let drv = if net < 0 then -1 else net_driver_id t net in
  let c = if drv < 0 then -1 else pin_cell_id t drv in
  if c >= 0 && is_lcb t c then c else -1

let lcb_of_ff t ff =
  let c = lcb_id_of_ff t ff in
  if c < 0 then raise Not_found else c

let lcb_out_net t lcb =
  let n = pin_net_id t (cell_pin_of_token_exn t lcb t.cko_tok) in
  if n >= 0 then n else invalid_arg "Design: LCB has no output net"

let ffs_of_lcb t lcb =
  let net = lcb_out_net t lcb in
  List.filter_map
    (fun p ->
      let c = pin_cell_id t p in
      if c >= 0 && is_ff t c && pin_name_id t p = t.ck_tok then Some c else None)
    (net_sinks t net)

let lcb_fanout t lcb =
  (* an LCB driving no net (possible after lenient-recovery parsing)
     clocks nothing: fanout 0, not an error *)
  let n = pin_net_id t (cell_pin_of_token_exn t lcb t.cko_tok) in
  if n < 0 then 0 else net_fanout t n

let reconnect_ff_to_lcb t ~ff ~lcb =
  if not (is_lcb t lcb) then invalid_arg "Design.reconnect_ff_to_lcb: target is not an LCB";
  let new_net = lcb_out_net t lcb in
  let ck = cell_pin_of_token_exn t ff t.ck_tok in
  let old_net = pin_net_id t ck in
  if old_net >= 0 then begin
    let sinks = Vec.get t.net_sinks old_net in
    let i = Ivec.find_index (fun p -> p = ck) sinks in
    if i >= 0 then begin
      (* order within a net does not matter; swap-remove *)
      let last = Ivec.pop sinks in
      if i < Ivec.length sinks then Ivec.set sinks i last
    end;
    Ivec.set t.pin_net ck (-1)
  end;
  ignore (Ivec.push (Vec.get t.net_sinks new_net) ck);
  Ivec.set t.pin_net ck new_net;
  if old_net >= 0 then begin
    mark t.net_changes old_net k_sinks;
    mark t.nets_stale old_net k_stale
  end;
  mark t.net_changes new_net k_sinks;
  mark t.nets_stale new_net k_stale

(* Inlined down to [clock_latency]'s callers: the timer reads it on
   every FF node it recomputes, and a float returned from a call is
   boxed. *)
let[@inline] physical_clock_latency t ff =
  let lcb = lcb_id_of_ff t ff in
  if lcb < 0 then 0.0
  else
    let master = cell_master t lcb in
    let insertion =
      match master.Cell.role with
      | Cell.Clock_buffer { insertion } -> insertion
      | Cell.Combinational | Cell.Flip_flop _ -> 0.0
    in
    let wire = Library.wire t.library in
    let len =
      Float.abs (cell_x t lcb -. cell_x t ff) +. Float.abs (cell_y t lcb -. cell_y t ff)
    in
    insertion +. Wire.delay wire ~r_drive:master.Cell.drive_res ~len

let[@inline] scheduled_latency t ff = Fvec.get t.cell_sched_latency ff

(* inlined: a float passed to a call is boxed, and the scheduler sets
   latencies in its allocation-free iteration *)
let[@inline] set_scheduled_latency t ff v =
  if not (same_bits (Fvec.get t.cell_sched_latency ff) v) then begin
    Fvec.set t.cell_sched_latency ff v;
    mark t.cell_changes ff k_latency
  end

let[@inline] clock_latency t ff = physical_clock_latency t ff +. scheduled_latency t ff

let set_latency_bounds t ff ~lo ~hi =
  if lo < 0.0 || hi < 0.0 || lo > hi then
    invalid_arg "Design.set_latency_bounds: need 0 <= lo <= hi";
  Hashtbl.replace t.latency_bounds ff (lo, hi);
  mark t.cell_changes ff k_bounds

let latency_bounds t ff =
  Option.value ~default:(0.0, infinity) (Hashtbl.find_opt t.latency_bounds ff)

(* [Hashtbl.find] raises the preallocated [Not_found], so a miss
   allocates nothing *)
let latency_hi_set t ff =
  match Hashtbl.find t.latency_bounds ff with _, hi -> hi | exception Not_found -> infinity

(* most designs set no window at all: that case inlines to a length test *)
let[@inline] latency_hi t ff =
  if Hashtbl.length t.latency_bounds = 0 then infinity else latency_hi_set t ff

(* [latency_bounds]'s test without the option and the tuple: a hit
   reads the stored pair's fields, unboxed once inlined *)
let[@inline] latency_outside t ff l ~tol =
  if Hashtbl.length t.latency_bounds = 0 || not (Hashtbl.mem t.latency_bounds ff) then
    l < 0.0 -. tol || l > infinity +. tol
  else
    let lo, hi = Hashtbl.find t.latency_bounds ff in
    l < lo -. tol || l > hi +. tol

let clear_latency_bounds t ff =
  Hashtbl.remove t.latency_bounds ff;
  mark t.cell_changes ff k_bounds

type changes = {
  cells : cell_id array;
  latencies : cell_id array;
  bounds : cell_id array;
  anchors : cell_id array;
  nets : net_id array;
}

(* the marked ids, ascending *)
let touched m =
  let ids = Array.sub m.stack 0 m.touched in
  Array.sort Int.compare ids;
  ids

(* those of [ids] marked with [kind] *)
let with_kind m ids kind =
  let has id = Char.code (Bytes.get m.bits id) land kind <> 0 in
  Array.of_seq (Seq.filter has (Array.to_seq ids))

(* empties the set and sizes it for ids below [n] *)
let restart m n =
  for k = 0 to m.touched - 1 do
    Bytes.set m.bits m.stack.(k) '\000'
  done;
  m.touched <- 0;
  if n > Bytes.length m.bits then begin
    m.bits <- Bytes.make n '\000';
    m.stack <- Array.make n 0
  end

let take_changes t =
  let c = with_kind t.cell_changes (touched t.cell_changes) in
  let changes =
    { cells = c k_line; latencies = c k_latency; bounds = c k_bounds; anchors = c k_anchor;
      nets = with_kind t.net_changes (touched t.net_changes) k_sinks }
  in
  restart t.cell_changes (num_cells t);
  restart t.net_changes (num_nets t);
  changes

(* the min/max fold of [Hpwl.of_points], in its order, without the point
   list or the box records *)
let[@inline] net_hpwl t n =
  let sinks = Vec.get t.net_sinks n and d = net_driver_id t n in
  let k = Ivec.length sinks and first = if d >= 0 then 0 else 1 in
  if k + 1 - first < 2 then 0.0
  else begin
    let p0 = if d >= 0 then d else Ivec.get sinks 0 in
    let lx = ref (pin_x t p0) and ly = ref (pin_y t p0) in
    let hx = ref !lx and hy = ref !ly in
    for i = first to k - 1 do
      let p = Ivec.get sinks i in
      let x = pin_x t p and y = pin_y t p in
      lx := Float.min !lx x;
      ly := Float.min !ly y;
      hx := Float.max !hx x;
      hy := Float.max !hy y
    done;
    !hx -. !lx +. (!hy -. !ly)
  end

(* whether [check] reports on net [n]: no driver, or a pin whose net
   is not [n], or a sink that is a signal source *)
let net_faulty t n =
  let d = net_driver_id t n and sinks = Vec.get t.net_sinks n in
  let bad = ref (d < 0 || pin_net_id t d <> n) in
  for i = 0 to Ivec.length sinks - 1 do
    let p = Ivec.get sinks i in
    if pin_net_id t p <> n || pin_is_output t p then bad := true
  done;
  !bad

let measure_net t n =
  t.hpwl.(n) <- net_hpwl t n;
  Bytes.set t.net_faulty n (if net_faulty t n then '\001' else '\000')

(* Brings the per-net columns up to date: the nets marked stale, then
   those added since the last call. Only a net's own pins and sink list
   decide both columns, and the mutators that change them mark the net
   ([add_net] makes a new one; a pin leaving or joining a net can turn
   no other net's verdict, since any other net listing it was already
   faulty and stays so, except a pin [set_net_sinks] takes from another
   net, which marks that net too). *)
let refresh_nets t =
  let m = t.nets_stale and nets = num_nets t in
  for k = 0 to m.touched - 1 do
    measure_net t m.stack.(k)
  done;
  let known = Array.length t.hpwl in
  if nets > known then begin
    let hpwl = Array.make nets 0.0 and faulty = Bytes.make nets '\000' in
    Array.blit t.hpwl 0 hpwl 0 known;
    Bytes.blit t.net_faulty 0 faulty 0 known;
    t.hpwl <- hpwl;
    t.net_faulty <- faulty;
    for n = known to nets - 1 do
      measure_net t n
    done
  end;
  restart m nets

(* the column summed in net order: bitwise the fold of [net_hpwl] *)
let total_hpwl t =
  refresh_nets t;
  let acc = ref 0.0 in
  for n = 0 to num_nets t - 1 do
    acc := !acc +. Array.unsafe_get t.hpwl n
  done;
  !acc

let check t =
  refresh_nets t;
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for n = 0 to num_nets t - 1 do
    if Bytes.get t.net_faulty n <> '\000' then begin
      let d = net_driver_id t n in
      if d < 0 then err "net %s has no driver" (net_name t n)
      else if pin_net_id t d <> n then err "net %s: driver pin points to another net" (net_name t n);
      iter_net_sinks t n (fun p ->
          if pin_net_id t p <> n then err "net %s: sink pin points to another net" (net_name t n);
          if pin_is_output t p then err "net %s: sink pin is a signal source" (net_name t n))
    end
  done;
  let ffs = ffs t and lcbs = lcbs t in
  for i = 0 to Array.length ffs - 1 do
    if lcb_id_of_ff t ffs.(i) < 0 then
      err "flip-flop %s has no LCB clock source" (cell_name t ffs.(i))
  done;
  for i = 0 to Array.length lcbs - 1 do
    if pin_net_id t (cell_pin_of_token_exn t lcbs.(i) t.cki_tok) < 0 then
      err "LCB %s has an unconnected clock input" (cell_name t lcbs.(i))
  done;
  List.rev !errors
