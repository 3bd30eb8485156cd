module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Diag = Css_util.Diag

(* shortest decimal form that parses back to the exact same float: the
   text format doubles as Flow.clone's deep-copy channel and as the
   checkpoint baseline of the differential oracles, so serialization
   must not perturb a single bit *)
let fstr x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let float_to_string = fstr

let add_pin_ref buf t p =
  match Design.pin_owner t p with
  | Design.Cell_pin (c, pin_name) ->
    Buffer.add_string buf (Design.cell_name t c);
    Buffer.add_char buf ':';
    Buffer.add_string buf pin_name
  | Design.Port_pin port ->
    Buffer.add_string buf "port:";
    Buffer.add_string buf (Design.port_name t port)

(* Cell and net lines go straight into the buffer: no [Printf] and no
   line copies. *)
let add_cell_line buf t c =
  let add = Buffer.add_string buf and sp () = Buffer.add_char buf ' ' in
  add "cell ";
  add (Design.cell_name t c);
  sp ();
  add (Design.cell_master t c).Css_liberty.Cell.name;
  sp ();
  add (fstr (Design.cell_x t c));
  sp ();
  add (fstr (Design.cell_y t c))

(* [Design.add_net] demands a driver, so every net has a line *)
let add_net_line buf t n =
  Buffer.add_string buf "net ";
  Buffer.add_string buf (Design.net_name t n);
  Buffer.add_char buf ' ';
  add_pin_ref buf t (Design.net_driver_id t n);
  Design.iter_net_sinks t n (fun p ->
      Buffer.add_char buf ' ';
      add_pin_ref buf t p)

let latency_line t c =
  let l = Design.scheduled_latency t c in
  if l <> 0.0 then Some (Printf.sprintf "latency %s %s" (Design.cell_name t c) (fstr l))
  else None

let bounds_line t ff =
  let lo, hi = Design.latency_bounds t ff in
  if lo > 0.0 || hi < infinity then
    Some (Printf.sprintf "bounds %s %s %s" (Design.cell_name t ff) (fstr lo) (fstr hi))
  else None

let line_of add t x =
  let b = Buffer.create 80 in
  add b t x;
  Buffer.contents b

let cell_line = line_of add_cell_line
let net_line = line_of add_net_line

let to_string t =
  let buf = Buffer.create (64 * (Design.num_cells t + Design.num_nets t) + 256) in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let opt_line = Option.iter (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') in
  line "design %s period %s" (Design.name t) (fstr (Design.clock_period t));
  let die = Design.die t in
  line "die %s %s %s %s" (fstr die.Rect.lx) (fstr die.Rect.ly) (fstr die.Rect.hx)
    (fstr die.Rect.hy);
  Design.iter_ports t (fun p ->
      let pos = Design.port_pos t p in
      line "port %s %s %s %s" (Design.port_name t p)
        (match Design.port_dir t p with Design.In -> "in" | Design.Out -> "out")
        (fstr pos.Point.x) (fstr pos.Point.y));
  Design.iter_cells t (fun c ->
      add_cell_line buf t c;
      Buffer.add_char buf '\n');
  Design.iter_nets t (fun n ->
      add_net_line buf t n;
      Buffer.add_char buf '\n');
  (match Design.clock_root t with
  | None -> ()
  | Some p -> line "clockroot %s" (Design.port_name t p));
  Design.iter_cells t (fun c -> opt_line (latency_line t c));
  Array.iter (fun ff -> opt_line (bounds_line t ff)) (Design.ffs t);
  Buffer.contents buf

type edit =
  | Cell_line of Design.cell_id * string
  | Net_line of Design.net_id * string
  | Latency_line of Design.cell_id * string option
  | Bounds_line of Design.cell_id * string option

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

type policy =
  | Abort
  | Recover

(* Raised while processing one line; caught by the line loop which either
   records-and-skips (Recover) or stops the parse (Abort). *)
exception Line_error of Diag.t

(* {1 The scanner}

   One cursor reads the text. A line is the bytes up to the next '\n',
   trimmed at both ends of [String.trim]'s whitespace; its fields are
   split at ' ' alone and held as byte ranges of the text. A field is
   copied only when it becomes a name the design keeps, the argument of
   [float_of_string], or part of a diagnostic. *)

type cursor = {
  source : string option;  (* the input's name in diagnostics *)
  mutable lineno : int;  (* 0 for an edit line, whose diagnostics carry no line *)
  mutable text : string;
  mutable first : int;  (* the line is [first, last) of [text] *)
  mutable last : int;
  mutable count : int;  (* fields i < count are [starts.(i), stops.(i)) *)
  mutable starts : int array;
  mutable stops : int array;
  mutable pins : int array;  (* a net line's resolved sinks, in field order *)
}

let cursor source =
  {
    source;
    lineno = 0;
    text = "";
    first = 0;
    last = 0;
    count = 0;
    starts = Array.make 8 0;
    stops = Array.make 8 0;
    pins = Array.make 8 0;
  }

let fail c ?hint ~code fmt =
  let line = if c.lineno > 0 then Some c.lineno else None in
  Printf.ksprintf (fun m -> raise (Line_error (Diag.error ?file:c.source ?line ?hint ~code m))) fmt

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let split c text first last =
  c.text <- text;
  c.first <- first;
  c.last <- last;
  c.count <- 0;
  let i = ref first in
  while !i < last do
    if String.unsafe_get text !i = ' ' then incr i
    else begin
      let start = !i in
      while !i < last && String.unsafe_get text !i <> ' ' do
        incr i
      done;
      if c.count = Array.length c.starts then begin
        let grow a = Array.append a (Array.make (Array.length a) 0) in
        c.starts <- grow c.starts;
        c.stops <- grow c.stops;
        c.pins <- grow c.pins
      end;
      c.starts.(c.count) <- start;
      c.stops.(c.count) <- !i;
      c.count <- c.count + 1
    end
  done

(* [s]'s bytes [a, b) are [key] *)
let same s a b key =
  let n = b - a in
  String.length key = n
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get s (a + !i) = String.unsafe_get key !i do
    incr i
  done;
  !i = n

let field c i = String.sub c.text c.starts.(i) (c.stops.(i) - c.starts.(i))
let is c i word = same c.text c.starts.(i) c.stops.(i) word

let number c i what =
  let v = field c i in
  match float_of_string v with
  | x -> x
  | exception Failure _ -> fail c ~code:"IO-007" "expected a number for %s, got %S" what v

(* Names looked up by byte range: open addressing over ids, whose keys
   are read back through [key] (the design's own name column), so a
   lookup hashes and compares a field where it lies. A name added again
   takes the slot over, as [Hashtbl.replace] does. *)
module Names = struct
  type t = {
    mutable slots : int array;  (* id + 1; 0 is empty *)
    mutable size : int;
    key : int -> string;
  }

  let create n key =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    { slots = Array.make !cap 0; size = 0; key }

  let hash s a b =
    let h = ref 0 in
    for i = a to b - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get s i)
    done;
    let h = !h * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)

  (* the id named by [s]'s bytes [a, b), or -1 *)
  let find t s a b =
    let mask = Array.length t.slots - 1 in
    let i = ref (hash s a b land mask) and id = ref (-2) in
    while !id = -2 do
      let v = Array.unsafe_get t.slots !i in
      if v = 0 then id := -1
      else if same s a b (t.key (v - 1)) then id := v - 1
      else i := (!i + 1) land mask
    done;
    !id

  let rec add t id =
    if 2 * (t.size + 1) > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) 0;
      t.size <- 0;
      Array.iter (fun v -> if v > 0 then add t (v - 1)) old
    end;
    let k = t.key id in
    let n = String.length k and mask = Array.length t.slots - 1 in
    let i = ref (hash k 0 n land mask) in
    while
      let v = t.slots.(!i) in
      v > 0 && not (same k 0 n (t.key (v - 1)))
    do
      i := (!i + 1) land mask
    done;
    if t.slots.(!i) = 0 then t.size <- t.size + 1;
    t.slots.(!i) <- id + 1

  let of_array names =
    let t = create (Array.length names) (Array.get names) in
    Array.iteri (fun i _ -> add t i) names;
    t
end

(* the library's masters and pin names, looked up by byte range *)
type library_names = {
  masters : string array;
  master_ids : Names.t;
  pin_names : string array;
  pin_ids : Names.t;
}

let library_names library =
  let cells = Css_liberty.Library.cells library in
  let masters = Array.of_list (List.map (fun (m : Css_liberty.Cell.t) -> m.name) cells) in
  let pin_names =
    List.concat_map (fun (m : Css_liberty.Cell.t) -> m.inputs @ m.outputs) cells
    |> List.sort_uniq compare |> Array.of_list
  in
  { masters; master_ids = Names.of_array masters; pin_names; pin_ids = Names.of_array pin_names }

(* what a pin reference resolves through *)
type names = {
  d : Design.t;
  lib : library_names;
  pin_toks : int array;  (* the design's token of each library pin name, -1 until it has one *)
  cells : Names.t;
  ports : Names.t;
}

let names lib ~cells d =
  {
    d;
    lib;
    pin_toks = Array.make (Array.length lib.pin_names) (-1);
    cells = Names.create cells (Design.cell_name d);
    ports = Names.create 8 (Design.port_name d);
  }

(* "did you mean" candidates, in declaration order *)
let cell_names d = List.init (Design.num_cells d) (Design.cell_name d)
let port_names d = List.init (Design.num_ports d) (Design.port_name d)

let find tbl c i = Names.find tbl c.text c.starts.(i) c.stops.(i)

(* the pin field [i] names: [cell:pin], or [port:name] when the part
   before its first ':' is "port" *)
let resolve c n i =
  let s = c.text and a = c.starts.(i) and b = c.stops.(i) in
  let colon = ref a in
  while !colon < b && String.unsafe_get s !colon <> ':' do
    incr colon
  done;
  let colon = !colon in
  if colon = b then fail c ~code:"IO-009" "malformed pin reference %s" (field c i)
  else if same s a colon "port" then begin
    let p = Names.find n.ports s (colon + 1) b in
    if p >= 0 then Design.port_pin n.d p
    else
      let pname = String.sub s (colon + 1) (b - colon - 1) in
      fail c ~code:"IO-003" ?hint:(Diag.did_you_mean pname (port_names n.d)) "unknown port %s" pname
  end
  else begin
    let cell = Names.find n.cells s a colon in
    if cell < 0 then begin
      let cname = String.sub s a (colon - a) in
      fail c ~code:"IO-004" ?hint:(Diag.did_you_mean cname (cell_names n.d)) "unknown cell %s" cname
    end;
    let k = Names.find n.lib.pin_ids s (colon + 1) b in
    if k >= 0 && n.pin_toks.(k) < 0 then
      n.pin_toks.(k) <- Design.pin_name_token n.d n.lib.pin_names.(k);
    let p = if k < 0 then -1 else Design.cell_pin_of_token n.d cell n.pin_toks.(k) in
    if p < 0 then fail c ~code:"IO-005" "unknown pin %s" (field c i);
    p
  end

(* [c]'s fields from [from] resolved, left to right, as a list *)
let resolve_list c n from =
  for i = from to c.count - 1 do
    c.pins.(i) <- resolve c n i
  done;
  let l = ref [] in
  for i = c.count - 1 downto from do
    l := c.pins.(i) :: !l
  done;
  !l

let of_string ?source ?(policy = Abort) ~library s =
  let col = Diag.collector () in
  let c = cursor source in
  let built = ref None in
  let pending_die = ref None in
  let header = ref None in
  let get_design () =
    match !built with
    | Some n -> n
    | None -> fail c ~code:"IO-002" "design header incomplete (need both 'design' and 'die' lines)"
  in
  let maybe_create () =
    match (!header, !pending_die) with
    | Some (name, period), Some die when !built = None ->
      let d = Design.create ~name ~library ~die ~clock_period:period () in
      (* about one cell line in 64 bytes of a generated design's text *)
      built := Some (names (library_names library) ~cells:(String.length s / 64) d)
    | _ -> ()
  in
  (* Every case reads its fields in the order the diagnostics have
     always come in: within a line, a point's y before its x, a window's
     upper bound before its lower, a net's sinks before its driver. *)
  let parse_line () =
    let nf = c.count in
    if nf = 5 && is c 0 "cell" then begin
      let n = get_design () in
      if find n.cells c 1 >= 0 then fail c ~code:"IO-011" "duplicate cell %s" (field c 1);
      let y = number c 4 "cell y" in
      let x = number c 3 "cell x" in
      let m = find n.lib.master_ids c 2 in
      if m < 0 then begin
        let master = field c 2 in
        fail c ~code:"IO-006" ?hint:(Diag.did_you_mean master (Array.to_list n.lib.masters))
          "unknown master %s" master
      end;
      let master = n.lib.masters.(m) in
      Names.add n.cells (Design.add_cell n.d ~name:(field c 1) ~master ~pos:(Point.make x y))
    end
    else if nf >= 3 && is c 0 "net" then begin
      let n = get_design () in
      let sinks = resolve_list c n 3 in
      let driver = resolve c n 2 in
      try ignore (Design.add_net n.d ~name:(field c 1) ~driver ~sinks)
      with Invalid_argument m -> fail c ~code:"IO-012" "cannot build net %s: %s" (field c 1) m
    end
    else if nf = 4 && is c 0 "design" && is c 2 "period" then begin
      let period = number c 3 "the clock period" in
      header := Some (field c 1, period);
      maybe_create ()
    end
    else if nf = 5 && is c 0 "die" then begin
      let hy = number c 4 "die hy" in
      let hx = number c 3 "die hx" in
      let ly = number c 2 "die ly" in
      let lx = number c 1 "die lx" in
      pending_die := Some (Rect.make ~lx ~ly ~hx ~hy);
      maybe_create ()
    end
    else if nf = 5 && is c 0 "port" then begin
      let n = get_design () in
      let dir =
        if is c 2 "in" then Design.In
        else if is c 2 "out" then Design.Out
        else fail c ~code:"IO-008" ~hint:"use 'in' or 'out'" "bad port direction %s" (field c 2)
      in
      if find n.ports c 1 >= 0 then fail c ~code:"IO-011" "duplicate port %s" (field c 1);
      let y = number c 4 "port y" in
      let x = number c 3 "port x" in
      Names.add n.ports (Design.add_port n.d ~name:(field c 1) ~dir ~pos:(Point.make x y))
    end
    else if nf = 2 && is c 0 "clockroot" then begin
      let n = get_design () in
      let p = find n.ports c 1 in
      if p >= 0 then Design.set_clock_root n.d p
      else
        let name = field c 1 in
        fail c ~code:"IO-003" ?hint:(Diag.did_you_mean name (port_names n.d))
          "unknown clock root port %s" name
    end
    else if (nf = 3 && is c 0 "latency") || (nf = 4 && is c 0 "bounds") then begin
      let n = get_design () in
      let cell = find n.cells c 1 in
      if cell < 0 then begin
        let name = field c 1 in
        fail c ~code:"IO-004" ?hint:(Diag.did_you_mean name (cell_names n.d)) "unknown cell %s" name
      end;
      if nf = 3 then Design.set_scheduled_latency n.d cell (number c 2 "the latency")
      else
        let hi = number c 3 "the upper bound" in
        let lo = number c 2 "the lower bound" in
        try Design.set_latency_bounds n.d cell ~lo ~hi
        with Invalid_argument m -> fail c ~code:"IO-010" "bad latency bounds: %s" m
    end
    else fail c ~code:"IO-001" "unrecognized line: %s" (String.sub s c.first (c.last - c.first))
  in
  let len = String.length s in
  let pos = ref 0 in
  let aborted = ref false in
  (try
     (* an empty text, or one ending in '\n', ends with an empty line *)
     while !pos <= len do
       let eol = ref !pos in
       while !eol < len && String.unsafe_get s !eol <> '\n' do
         incr eol
       done;
       let a = ref !pos and b = ref !eol in
       while !a < !b && is_space (String.unsafe_get s !a) do
         incr a
       done;
       while !b > !a && is_space (String.unsafe_get s (!b - 1)) do
         decr b
       done;
       c.lineno <- c.lineno + 1;
       if !a < !b && String.unsafe_get s !a <> '#' then begin
         split c s !a !b;
         try parse_line ()
         with Line_error d ->
           Diag.emit col d;
           if policy = Abort then raise Exit
       end;
       pos := !eol + 1
     done
   with Exit -> aborted := true);
  match !built with
  | Some n when not !aborted -> Ok (n.d, Diag.diags col)
  | Some _ -> Error (Diag.diags col)
  | None ->
    if Diag.error_count col = 0 then
      Diag.emit col
        (Diag.error ?file:source ~code:"IO-002"
           "missing design header (need 'design <name> period <T>' and 'die <lx> <ly> <hx> <hy>')");
    Error (Diag.diags col)

(* The inverse of the line writers: each edit is parsed as [of_string]
   parses its line and written through the design's mutators onto the
   entity it addresses, which must bear the name the line gives. Pin
   references need the name tables, built once, on the first net line.
   The nets set, and those their sinks came from, must end with every
   sink pointing back at them: a pin on two net lines is a netlist
   [of_string] would reject. *)
let apply_lines d edits =
  let c = cursor None in
  let lib = library_names (Design.library d) in
  let tables =
    lazy
      (let n = names lib ~cells:(Design.num_cells d) d in
       Design.iter_cells d (Names.add n.cells);
       Design.iter_ports d (Names.add n.ports);
       n)
  in
  let in_range what count id =
    if id < 0 || id >= count then
      fail c ~code:"IO-013" "edit of %s %d, the design holds %d" what id count
  in
  let named what name_of id =
    let name = name_of id in
    if not (is c 1 name) then
      fail c ~code:"IO-013" "edit of %s %d names %s, not %s" what id (field c 1) name
  in
  let scan l keyword fields =
    split c l 0 (String.length l);
    if not (c.count = fields && is c 0 keyword) then
      fail c ~code:"IO-001" "unrecognized line: %s" l
  in
  let nets = ref [] in
  let apply edit =
    (match edit with
    | Net_line (net, _) -> in_range "net" (Design.num_nets d) net
    | Cell_line (cell, _) | Latency_line (cell, _) | Bounds_line (cell, _) ->
      in_range "cell" (Design.num_cells d) cell);
    match edit with
    | Cell_line (cell, l) ->
      scan l "cell" 5;
      named "cell" (Design.cell_name d) cell;
      let y = number c 4 "cell y" in
      let x = number c 3 "cell x" in
      let m = find lib.master_ids c 2 in
      if m < 0 then fail c ~code:"IO-006" "unknown master %s" (field c 2);
      (try Design.swap_master d cell lib.masters.(m)
       with Invalid_argument m -> fail c ~code:"IO-006" "%s" m);
      Design.move_cell d cell (Point.make x y)
    | Net_line (net, l) ->
      split c l 0 (String.length l);
      if not (c.count >= 3 && is c 0 "net") then fail c ~code:"IO-001" "unrecognized line: %s" l;
      named "net" (Design.net_name d) net;
      let n = Lazy.force tables in
      if resolve c n 2 <> Design.net_driver_id d net then
        fail c ~code:"IO-013" "edit of net %s changes its driver" (field c 1);
      let sinks = resolve_list c n 3 in
      (* the nets the sinks come from must let go of them too *)
      List.iter
        (fun p ->
          let old = Design.pin_net_id d p in
          if old >= 0 && old <> net then nets := old :: !nets)
        sinks;
      (try Design.set_net_sinks d net sinks
       with Invalid_argument m -> fail c ~code:"IO-012" "cannot build net %s: %s" (field c 1) m);
      nets := net :: !nets
    | Latency_line (cell, None) -> Design.set_scheduled_latency d cell 0.0
    | Latency_line (cell, Some l) ->
      scan l "latency" 3;
      named "cell" (Design.cell_name d) cell;
      Design.set_scheduled_latency d cell (number c 2 "the latency")
    | Bounds_line (cell, None) -> Design.clear_latency_bounds d cell
    | Bounds_line (cell, Some l) -> (
      scan l "bounds" 4;
      named "cell" (Design.cell_name d) cell;
      let hi = number c 3 "the upper bound" in
      let lo = number c 2 "the lower bound" in
      try Design.set_latency_bounds d cell ~lo ~hi
      with Invalid_argument m -> fail c ~code:"IO-010" "bad latency bounds: %s" m)
  in
  let on_its_net n =
    Design.iter_net_sinks d n (fun p ->
        if Design.pin_net_id d p <> n then
          fail c ~code:"IO-012" "net %s: a sink pin is on another net too" (Design.net_name d n))
  in
  try
    List.iter apply edits;
    List.iter on_its_net (List.sort_uniq compare !nets);
    Ok ()
  with Line_error diag -> Error diag

let first_error ds =
  match List.find_opt Diag.is_error ds with Some d -> d | None -> List.hd ds

let of_string_exn ~library s =
  match of_string ~library s with
  | Ok (d, _) -> d
  | Error ds -> failwith (Diag.to_string (first_error ds))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ?policy ~library path =
  match read_file path with
  | exception Sys_error m ->
    Error [ Diag.error ~file:path ~code:"IO-000" (Printf.sprintf "cannot read: %s" m) ]
  | s -> of_string ~source:path ?policy ~library s

let load_exn ~library path =
  match load ~library path with
  | Ok (d, _) -> d
  | Error ds -> failwith (Diag.to_string (first_error ds))
