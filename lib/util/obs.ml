(* Observability contexts: counters, spans, snapshots, JSON dumping.
   See obs.mli for the contract; docs/OBSERVABILITY.md for the taxonomy. *)

(* The JSON tree moved to [Json] (lib/util/json.ml) so sibling modules
   can use it; keep the historical [Obs.Json] path as an alias. *)
module Json = Json

(* ------------------------------------------------------------------ *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

(* One shared sink cell for every counter request on the null context;
   increments land here and are never read. *)
let dummy_counter = { c_name = ""; c_value = 0 }

type span_cell = {
  s_path : string;
  mutable s_total : float;
  mutable s_count : int;
}

type snap = {
  sn_label : string;
  sn_span : string;
  sn_seq : int;
  sn_fields : (string * Json.t) list;
}

type t = {
  on : bool;
  trace : out_channel option;
  ctr_tbl : (string, counter) Hashtbl.t;
  span_tbl : (string, span_cell) Hashtbl.t;
  histo_tbl : (string, Histo.t) Hashtbl.t;
  mutable stack : (string * float) list;  (* innermost first; (name, t0) *)
  mutable snaps : snap list;  (* reversed *)
  mutable seq : int;
  ep : float;  (* wall-clock at creation: the run's correlation anchor *)
  mutable tracer : Tracer.t;  (* mirror spans/snapshots onto a timeline *)
}

let make ~trace =
  {
    on = true;
    trace;
    ctr_tbl = Hashtbl.create 32;
    span_tbl = Hashtbl.create 16;
    histo_tbl = Hashtbl.create 16;
    stack = [];
    snaps = [];
    seq = 0;
    ep = Wall_clock.epoch ();
    tracer = Tracer.null;
  }

let null =
  {
    on = false;
    trace = None;
    ctr_tbl = Hashtbl.create 1;
    span_tbl = Hashtbl.create 1;
    histo_tbl = Hashtbl.create 1;
    stack = [];
    snaps = [];
    seq = 0;
    ep = 0.0;
    tracer = Tracer.null;
  }

let create () = make ~trace:None
let create_trace oc = make ~trace:(Some oc)
let enabled t = t.on
let epoch t = t.ep

let attach_tracer t tracer = if t.on then t.tracer <- tracer

let tracer t = t.tracer

(* --- counters --- *)

let counter t name =
  if not t.on then dummy_counter
  else begin
    match Hashtbl.find_opt t.ctr_tbl name with
    | Some c -> c
    | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.add t.ctr_tbl name c;
      c
  end

let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg "Obs.add: counters are monotone (negative delta)";
  c.c_value <- c.c_value + n

let value c = c.c_value

let counters t =
  Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) t.ctr_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- histograms --- *)

let histogram t name =
  if not t.on then Histo.dummy
  else begin
    match Hashtbl.find_opt t.histo_tbl name with
    | Some h -> h
    | None ->
      let h = Histo.create () in
      Hashtbl.add t.histo_tbl name h;
      h
  end

let histograms t =
  Hashtbl.fold (fun name h acc -> if Histo.count h > 0 then (name, h) :: acc else acc) t.histo_tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- spans --- *)

let stack_path stack = String.concat "/" (List.rev_map fst stack)

let open_span t name =
  if t.on then begin
    t.stack <- (name, Wall_clock.now ()) :: t.stack;
    if Tracer.enabled t.tracer then
      Tracer.span_begin t.tracer (Tracer.intern t.tracer name)
  end

let close_span t name =
  if t.on then begin
    match t.stack with
    | [] -> invalid_arg "Obs.close_span: no open span"
    | (top, t0) :: rest ->
      if top <> name then
        invalid_arg
          (Printf.sprintf "Obs.close_span: closing %S but innermost open span is %S" name top);
      let dt = Wall_clock.now () -. t0 in
      let path = stack_path t.stack in
      t.stack <- rest;
      if Tracer.enabled t.tracer then
        Tracer.span_end t.tracer (Tracer.intern t.tracer name);
      let cell =
        match Hashtbl.find_opt t.span_tbl path with
        | Some c -> c
        | None ->
          let c = { s_path = path; s_total = 0.0; s_count = 0 } in
          Hashtbl.add t.span_tbl path c;
          c
      in
      cell.s_total <- cell.s_total +. dt;
      cell.s_count <- cell.s_count + 1;
      match t.trace with
      | Some oc -> Printf.fprintf oc "[obs] span  %-40s %9.3f ms\n%!" path (1000.0 *. dt)
      | None -> ()
  end

let span t name f =
  if not t.on then f ()
  else begin
    open_span t name;
    Fun.protect ~finally:(fun () -> close_span t name) f
  end

let spans t =
  Hashtbl.fold (fun _ c acc -> (c.s_path, c.s_total, c.s_count) :: acc) t.span_tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* --- snapshots --- *)

let snapshot t ~label fields =
  if t.on then begin
    let seq = t.seq in
    t.seq <- seq + 1;
    t.snaps <- { sn_label = label; sn_span = stack_path t.stack; sn_seq = seq; sn_fields = fields } :: t.snaps;
    if Tracer.enabled t.tracer then
      Tracer.instant t.tracer (Tracer.intern t.tracer label);
    match t.trace with
    | Some oc ->
      Printf.fprintf oc "[obs] snap  %s#%d" label seq;
      List.iter
        (fun (k, v) ->
          let s =
            match v with
            | Json.Float x -> Printf.sprintf "%.2f" x
            | v -> Json.to_string v
          in
          Printf.fprintf oc " %s=%s" k s)
        fields;
      Printf.fprintf oc "\n%!"
    | None -> ()
  end

let snapshots t = List.rev_map (fun s -> (s.sn_label, s.sn_span, s.sn_fields)) t.snaps

(* --- dumping --- *)

let to_json t =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ( "spans",
        Json.List
          (List.map
             (fun (path, total, count) ->
               Json.Obj
                 [
                   ("path", Json.String path);
                   ("total_s", Json.Float total);
                   ("count", Json.Int count);
                 ])
             (spans t)) );
      ( "snapshots",
        Json.List
          (List.map
             (fun (label, span_path, fields) ->
               Json.Obj
                 [
                   ("label", Json.String label);
                   ("span", Json.String span_path);
                   ("fields", Json.Obj fields);
                 ])
             (snapshots t)) );
      ( "histograms",
        Json.Obj (List.map (fun (name, h) -> (name, Histo.to_json h)) (histograms t)) );
      ( "clock",
        Json.Obj [ ("source", Json.String "monotonic"); ("epoch_s", Json.Float t.ep) ] );
    ]

(* Atomic (tmp+rename): an interrupted run truncates the temp file, not
   a previously good stats dump. *)
let write_json t path =
  Json.write_file path (fun oc ->
      match to_json t with
      | Json.Obj kvs ->
        output_string oc "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then output_string oc ",\n";
            let b = Buffer.create 256 in
            Json.escape_to b k;
            Buffer.add_string b ": ";
            Json.to_buffer b v;
            output_string oc (Buffer.contents b))
          kvs;
        output_string oc "\n}\n"
      | v -> output_string oc (Json.to_string v))
