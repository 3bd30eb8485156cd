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

let fail_line ?file ?line ?hint ~code fmt =
  Printf.ksprintf (fun m -> raise (Line_error (Diag.error ?file ?line ?hint ~code m))) fmt

let number ?file ?line what v =
  match float_of_string_opt v with
  | Some x -> x
  | None -> fail_line ?file ?line ~code:"IO-007" "expected a number for %s, got %S" what v

let words line = String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* the cell and port names a pin reference resolves through *)
type names = {
  cells : (string, Design.cell_id) Hashtbl.t;
  ports : (string, Design.port_id) Hashtbl.t;
}

let known tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []

(* the pin a [cell:pin] or [port:name] reference names *)
let resolve ?file ?line names d r =
  let fail = fail_line ?file ?line in
  match String.index_opt r ':' with
  | Some i when String.sub r 0 i = "port" ->
    let pname = String.sub r (i + 1) (String.length r - i - 1) in
    (match Hashtbl.find_opt names.ports pname with
    | Some p -> Design.port_pin d p
    | None ->
      fail ~code:"IO-003" ?hint:(Diag.did_you_mean pname (known names.ports)) "unknown port %s"
        pname)
  | Some i ->
    let cname = String.sub r 0 i in
    let pin = String.sub r (i + 1) (String.length r - i - 1) in
    (match Hashtbl.find_opt names.cells cname with
    | Some c -> (
      try Design.cell_pin d c pin with Not_found -> fail ~code:"IO-005" "unknown pin %s" r)
    | None ->
      fail ~code:"IO-004" ?hint:(Diag.did_you_mean cname (known names.cells)) "unknown cell %s"
        cname)
  | None -> fail ~code:"IO-009" "malformed pin reference %s" r

let of_string ?source ?(policy = Abort) ~library s =
  let col = Diag.collector () in
  let fail ?hint ~code lineno fmt = fail_line ?file:source ~line:lineno ?hint ~code fmt in
  let number lineno what v = number ?file:source ~line:lineno what v in
  let lines = String.split_on_char '\n' s in
  let design = ref None in
  let names = { cells = Hashtbl.create 64; ports = Hashtbl.create 16 } in
  let cells = names.cells and ports = names.ports in
  let pending_die = ref None in
  let header = ref None in
  let get_design lineno =
    match !design with
    | Some d -> d
    | None ->
      fail ~code:"IO-002" lineno "design header incomplete (need both 'design' and 'die' lines)"
  in
  let maybe_create () =
    match (!header, !pending_die) with
    | Some (name, period), Some die when !design = None ->
      design := Some (Design.create ~name ~library ~die ~clock_period:period ())
    | _ -> ()
  in
  let resolve lineno d r = resolve ?file:source ~line:lineno names d r in
  let parse_line lineno line =
    match words line with
    | [ "design"; name; "period"; t ] ->
      header := Some (name, number lineno "the clock period" t);
      maybe_create ()
    | [ "die"; lx; ly; hx; hy ] ->
      let f what v = number lineno what v in
      pending_die :=
        Some
          (Rect.make ~lx:(f "die lx" lx) ~ly:(f "die ly" ly) ~hx:(f "die hx" hx)
             ~hy:(f "die hy" hy));
      maybe_create ()
    | [ "port"; name; dir; x; y ] ->
      let d = get_design lineno in
      let dir =
        match dir with
        | "in" -> Design.In
        | "out" -> Design.Out
        | _ -> fail ~code:"IO-008" ~hint:"use 'in' or 'out'" lineno "bad port direction %s" dir
      in
      if Hashtbl.mem ports name then fail ~code:"IO-011" lineno "duplicate port %s" name;
      let p =
        Design.add_port d ~name ~dir
          ~pos:(Point.make (number lineno "port x" x) (number lineno "port y" y))
      in
      Hashtbl.replace ports name p
    | [ "cell"; name; master; x; y ] ->
      let d = get_design lineno in
      if Hashtbl.mem cells name then fail ~code:"IO-011" lineno "duplicate cell %s" name;
      let c =
        try
          Design.add_cell d ~name ~master
            ~pos:(Point.make (number lineno "cell x" x) (number lineno "cell y" y))
        with Not_found ->
          let names =
            List.map
              (fun (c : Css_liberty.Cell.t) -> c.Css_liberty.Cell.name)
              (Css_liberty.Library.cells library)
          in
          fail ~code:"IO-006" ?hint:(Diag.did_you_mean master names) lineno
            "unknown master %s" master
      in
      Hashtbl.replace cells name c
    | "net" :: name :: driver :: sinks ->
      let d = get_design lineno in
      (try
         ignore
           (Design.add_net d ~name ~driver:(resolve lineno d driver)
              ~sinks:(List.map (resolve lineno d) sinks))
       with Invalid_argument m -> fail ~code:"IO-012" lineno "cannot build net %s: %s" name m)
    | [ "clockroot"; name ] ->
      let d = get_design lineno in
      (match Hashtbl.find_opt ports name with
      | Some p -> Design.set_clock_root d p
      | None ->
        fail ~code:"IO-003" ?hint:(Diag.did_you_mean name (known ports)) lineno
          "unknown clock root port %s" name)
    | [ "latency"; name; v ] ->
      let d = get_design lineno in
      (match Hashtbl.find_opt cells name with
      | Some c -> Design.set_scheduled_latency d c (number lineno "the latency" v)
      | None ->
        fail ~code:"IO-004" ?hint:(Diag.did_you_mean name (known cells)) lineno
          "unknown cell %s" name)
    | [ "bounds"; name; lo; hi ] ->
      let d = get_design lineno in
      (match Hashtbl.find_opt cells name with
      | Some c -> (
        try
          Design.set_latency_bounds d c ~lo:(number lineno "the lower bound" lo)
            ~hi:(number lineno "the upper bound" hi)
        with Invalid_argument m -> fail ~code:"IO-010" lineno "bad latency bounds: %s" m)
      | None ->
        fail ~code:"IO-004" ?hint:(Diag.did_you_mean name (known cells)) lineno
          "unknown cell %s" name)
    | _ -> fail ~code:"IO-001" lineno "unrecognized line: %s" line
  in
  let aborted = ref false in
  (try
     List.iteri
       (fun i raw ->
         let lineno = i + 1 in
         let line = String.trim raw in
         if line <> "" && line.[0] <> '#' then
           try parse_line lineno line
           with Line_error d ->
             Diag.emit col d;
             if policy = Abort then raise Exit)
       lines
   with Exit -> aborted := true);
  match !design with
  | Some d when not !aborted -> Ok (d, Diag.diags col)
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
  let fail = fail_line in
  let names =
    lazy
      (let names =
         { cells = Hashtbl.create (Design.num_cells d); ports = Hashtbl.create 16 }
       in
       Design.iter_cells d (fun c -> Hashtbl.replace names.cells (Design.cell_name d c) c);
       Design.iter_ports d (fun p -> Hashtbl.replace names.ports (Design.port_name d p) p);
       names)
  in
  let in_range what count id =
    if id < 0 || id >= count then
      fail ~code:"IO-013" "edit of %s %d, the design holds %d" what id count
  in
  let named what name_of id name =
    if name <> name_of id then
      fail ~code:"IO-013" "edit of %s %d names %s, not %s" what id name (name_of id)
  in
  let cell = named "cell" (Design.cell_name d) in
  let unrecognized l = fail ~code:"IO-001" "unrecognized line: %s" l in
  let nets = ref [] in
  let apply edit =
    (match edit with
    | Net_line (n, _) -> in_range "net" (Design.num_nets d) n
    | Cell_line (c, _) | Latency_line (c, _) | Bounds_line (c, _) ->
      in_range "cell" (Design.num_cells d) c);
    match edit with
    | Cell_line (c, l) -> (
      match words l with
      | [ "cell"; name; master; x; y ] ->
        cell c name;
        let pos = Point.make (number "cell x" x) (number "cell y" y) in
        (try Design.swap_master d c master with
        | Not_found -> fail ~code:"IO-006" "unknown master %s" master
        | Invalid_argument m -> fail ~code:"IO-006" "%s" m);
        Design.move_cell d c pos
      | _ -> unrecognized l)
    | Net_line (n, l) -> (
      match words l with
      | "net" :: name :: driver :: sinks ->
        named "net" (Design.net_name d) n name;
        let names = Lazy.force names in
        if resolve names d driver <> Design.net_driver_id d n then
          fail ~code:"IO-013" "edit of net %s changes its driver" name;
        let sinks = List.map (resolve names d) sinks in
        (* the nets the sinks come from must let go of them too *)
        List.iter
          (fun p ->
            let old = Design.pin_net_id d p in
            if old >= 0 && old <> n then nets := old :: !nets)
          sinks;
        (try Design.set_net_sinks d n sinks
         with Invalid_argument m -> fail ~code:"IO-012" "cannot build net %s: %s" name m);
        nets := n :: !nets
      | _ -> unrecognized l)
    | Latency_line (c, None) -> Design.set_scheduled_latency d c 0.0
    | Latency_line (c, Some l) -> (
      match words l with
      | [ "latency"; name; v ] ->
        cell c name;
        Design.set_scheduled_latency d c (number "the latency" v)
      | _ -> unrecognized l)
    | Bounds_line (c, None) -> Design.clear_latency_bounds d c
    | Bounds_line (c, Some l) -> (
      match words l with
      | [ "bounds"; name; lo; hi ] -> (
        cell c name;
        try
          Design.set_latency_bounds d c ~lo:(number "the lower bound" lo)
            ~hi:(number "the upper bound" hi)
        with Invalid_argument m -> fail ~code:"IO-010" "bad latency bounds: %s" m)
      | _ -> unrecognized l)
  in
  let on_its_net n =
    Design.iter_net_sinks d n (fun p ->
        if Design.pin_net_id d p <> n then
          fail ~code:"IO-012" "net %s: a sink pin is on another net too" (Design.net_name d n))
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
