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

let starts_with prefix s = String.starts_with ~prefix s

(* the second word of a [cell]/[latency]/[bounds] line: the cell name *)
let second_word l =
  let a = String.index l ' ' + 1 in
  match String.index_from_opt l a ' ' with
  | Some b -> String.sub l a (b - a)
  | None -> String.sub l a (String.length l - a)

(* The text is split into its sections, as [to_string] lays them out;
   cell and net lines are replaced in place, and the latency and bounds
   sections are rebuilt in cell-id order from one optional line per
   cell. *)
let apply_edits text edits =
  if edits = [] then text
  else begin
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let i = ref (min n 2) in
    let span prefix =
      let first = !i in
      while !i < n && starts_with prefix lines.(!i) do
        incr i
      done;
      (first, !i - first)
    in
    ignore (span "port ");
    let c0, ncells = span "cell " in
    let n0, nnets = span "net " in
    ignore (span "clockroot ");
    let l0, nlat = span "latency " in
    let b0, nbounds = span "bounds " in
    if n < 3 || b0 + nbounds <> n - 1 || lines.(n - 1) <> "" then
      failwith "design text is not laid out as Io.to_string writes it";
    let by_cell = Array.make ncells None and bounds = Array.make ncells None in
    if nlat + nbounds > 0 then begin
      let id = Hashtbl.create ncells in
      for c = 0 to ncells - 1 do
        Hashtbl.replace id (second_word lines.(c0 + c)) c
      done;
      let place column first count =
        for k = first to first + count - 1 do
          match Hashtbl.find_opt id (second_word lines.(k)) with
          | Some c -> column.(c) <- Some lines.(k)
          | None -> failwith ("design text names an unknown cell: " ^ lines.(k))
        done
      in
      place by_cell l0 nlat;
      place bounds b0 nbounds
    end;
    let check what id count =
      if id < 0 || id >= count then
        failwith (Printf.sprintf "edit of %s %d, the design text holds %d" what id count)
    in
    List.iter
      (function
        | Cell_line (c, l) ->
          check "cell" c ncells;
          lines.(c0 + c) <- l
        | Net_line (k, l) ->
          check "net" k nnets;
          lines.(n0 + k) <- l
        | Latency_line (c, l) ->
          check "cell" c ncells;
          by_cell.(c) <- l
        | Bounds_line (c, l) ->
          check "cell" c ncells;
          bounds.(c) <- l)
      edits;
    let buf = Buffer.create (String.length text + 256) in
    let add l =
      Buffer.add_string buf l;
      Buffer.add_char buf '\n'
    in
    for k = 0 to l0 - 1 do
      add lines.(k)
    done;
    Array.iter (Option.iter add) by_cell;
    Array.iter (Option.iter add) bounds;
    Buffer.contents buf
  end

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

let of_string ?source ?(policy = Abort) ~library s =
  let col = Diag.collector () in
  let fail ?hint ~code lineno fmt =
    Printf.ksprintf
      (fun m -> raise (Line_error (Diag.error ?file:source ~line:lineno ?hint ~code m)))
      fmt
  in
  let number lineno what v =
    match float_of_string_opt v with
    | Some x -> x
    | None -> fail ~code:"IO-007" lineno "expected a number for %s, got %S" what v
  in
  let lines = String.split_on_char '\n' s in
  let design = ref None in
  let cells = Hashtbl.create 64 in
  let ports = Hashtbl.create 16 in
  let pending_die = ref None in
  let header = ref None in
  let known tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
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
  let resolve lineno d r =
    match String.index_opt r ':' with
    | Some i when String.sub r 0 i = "port" ->
      let pname = String.sub r (i + 1) (String.length r - i - 1) in
      (match Hashtbl.find_opt ports pname with
      | Some p -> Design.port_pin d p
      | None ->
        fail ~code:"IO-003" ?hint:(Diag.did_you_mean pname (known ports)) lineno
          "unknown port %s" pname)
    | Some i ->
      let cname = String.sub r 0 i in
      let pin = String.sub r (i + 1) (String.length r - i - 1) in
      (match Hashtbl.find_opt cells cname with
      | Some c -> (
        try Design.cell_pin d c pin
        with Not_found -> fail ~code:"IO-005" lineno "unknown pin %s" r)
      | None ->
        fail ~code:"IO-004" ?hint:(Diag.did_you_mean cname (known cells)) lineno
          "unknown cell %s" cname)
    | None -> fail ~code:"IO-009" lineno "malformed pin reference %s" r
  in
  let parse_line lineno line =
    let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
    match words with
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
