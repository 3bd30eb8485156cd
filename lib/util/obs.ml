(* Observability contexts: counters, histograms, spans, snapshots and
   the timeline they are recorded on; JSON and Chrome trace export.
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

(* An open span: its name, interned id and the timeline stamp of its B
   event. *)
type frame = {
  f_name : string;
  f_id : int;
  f_start : float;
}

type snap = {
  sn_label : string;
  sn_span : string;
  sn_fields : (string * Json.t) list;
}

(* The timeline is one append-only struct-of-arrays log. An event is a
   fixed-size record (kind byte, interned name id, monotonic stamp, one
   float argument) written with three array stores and a Bytes store
   into the next slot, no allocation, no lock: the program records from
   one domain. A full log doubles its columns; nothing is ever
   overwritten. Spans live only here, as B/E pairs: [spans] replays
   them into per-path totals. *)
type t = {
  on : bool;
  trace : out_channel option;
  ctr_tbl : (string, counter) Hashtbl.t;
  histo_tbl : (string, Histo.t) Hashtbl.t;
  mutable stack : frame list;  (* open spans, innermost first *)
  mutable snaps : snap list;  (* reversed *)
  mutable seq : int;
  ep : float;  (* wall-clock at creation: the run's correlation anchor *)
  t0 : float;  (* monotonic base: stamps are relative to this *)
  mutable kinds : Bytes.t;
  mutable names : int array;
  mutable stamps : float array;
  mutable args : float array;
  mutable len : int;  (* events recorded = next write slot *)
  name_ids : (string, int) Hashtbl.t;
  mutable names_by_id : string array;
  mutable gc_alarm : Gc.alarm option;
}

let k_begin = 0
let k_end = 1
let k_instant = 2
let k_counter = 3

(* ~100 KB of columns: more than any css_opt or css_serve run records,
   and large enough that every grown column is allocated directly on
   the major heap *)
let initial_events = 4096

let make ~on ~trace =
  let n = if on then initial_events else 0 in
  {
    on;
    trace;
    ctr_tbl = Hashtbl.create (if on then 32 else 1);
    histo_tbl = Hashtbl.create (if on then 16 else 1);
    stack = [];
    snaps = [];
    seq = 0;
    ep = (if on then Wall_clock.epoch () else 0.0);
    t0 = (if on then Wall_clock.now () else 0.0);
    kinds = Bytes.make n '\000';
    names = Array.make n 0;
    stamps = Array.make n 0.0;
    args = Array.make n 0.0;
    len = 0;
    name_ids = Hashtbl.create (if on then 64 else 1);
    names_by_id = Array.make (if on then 64 else 0) "";
    gc_alarm = None;
  }

let null = make ~on:false ~trace:None
let create () = make ~on:true ~trace:None
let create_trace oc = make ~on:true ~trace:(Some oc)
let enabled t = t.on
let epoch t = t.ep

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

(* --- the timeline log --- *)

(* Only called on an enabled context. *)
let intern t s =
  match Hashtbl.find_opt t.name_ids s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.name_ids in
    if id >= Array.length t.names_by_id then begin
      let bigger = Array.make (2 * Array.length t.names_by_id) "" in
      Array.blit t.names_by_id 0 bigger 0 id;
      t.names_by_id <- bigger
    end;
    t.names_by_id.(id) <- s;
    Hashtbl.add t.name_ids s id;
    id

(* Double the columns. The GC alarm records from a finaliser, which can
   run at any of the allocations below and may even grow the log
   itself: so copy from the live columns and length as they are once
   the allocations have returned, never from values read before. *)
let grow t =
  let n = 2 * Array.length t.names in
  let kinds = Bytes.make n '\000' in
  let names = Array.make n 0 in
  let stamps = Array.make n 0.0 in
  let args = Array.make n 0.0 in
  if Array.length t.names < n then begin
    let len = t.len in
    Bytes.blit t.kinds 0 kinds 0 len;
    Array.blit t.names 0 names 0 len;
    Array.blit t.stamps 0 stamps 0 len;
    Array.blit t.args 0 args 0 len;
    t.kinds <- kinds;
    t.names <- names;
    t.stamps <- stamps;
    t.args <- args
  end

(* Inlined down to the callers of [sample]: a float argument passed to a
   call is boxed, and the record path must not allocate. The stamp is
   read after any growth, so events the GC alarm records during one
   stay in time order. *)
let[@inline] record t kind name arg =
  if t.on then begin
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    Bytes.unsafe_set t.kinds i (Char.unsafe_chr kind);
    Array.unsafe_set t.names i name;
    Array.unsafe_set t.stamps i (Wall_clock.now () -. t.t0);
    Array.unsafe_set t.args i arg;
    t.len <- i + 1
  end

type lane = {
  l_obs : t;
  l_name : int;
}

let null_lane = { l_obs = null; l_name = 0 }
let lane t name = if not t.on then null_lane else { l_obs = t; l_name = intern t name }
let[@inline] sample l v = record l.l_obs k_counter l.l_name v
let recorded t = t.len

(* --- spans --- *)

let stack_path stack = String.concat "/" (List.rev_map (fun f -> f.f_name) stack)

(* Records a span boundary and returns its stamp, read back from the
   slot just written (nothing allocates in between, so no alarm can
   record after it). *)
let[@inline] boundary t kind id =
  record t kind id 0.0;
  t.stamps.(t.len - 1)

let open_span t name =
  if t.on then begin
    let id = intern t name in
    let stamp = boundary t k_begin id in
    t.stack <- { f_name = name; f_id = id; f_start = stamp } :: t.stack
  end

let close_span t name =
  if t.on then begin
    match t.stack with
    | [] -> invalid_arg "Obs.close_span: no open span"
    | top :: rest ->
      if top.f_name <> name then
        invalid_arg
          (Printf.sprintf "Obs.close_span: closing %S but innermost open span is %S" name
             top.f_name);
      let stamp = boundary t k_end top.f_id in
      t.stack <- rest;
      match t.trace with
      | Some oc ->
        Printf.fprintf oc "[obs] span  %-40s %9.3f ms\n%!" (stack_path (top :: rest))
          (1000.0 *. (stamp -. top.f_start))
      | None -> ()
  end

let span t name f =
  if not t.on then f ()
  else begin
    open_span t name;
    Fun.protect ~finally:(fun () -> close_span t name) f
  end

(* Replay the log's B/E pairs; an E always closes the innermost open B
   ([close_span] checks it before recording). *)
let spans t =
  let totals = Hashtbl.create 16 in
  let stack = ref [] in
  for i = 0 to t.len - 1 do
    let kind = Char.code (Bytes.get t.kinds i) and id = t.names.(i) in
    if kind = k_begin then
      stack := { f_name = t.names_by_id.(id); f_id = id; f_start = t.stamps.(i) } :: !stack
    else if kind = k_end then
      match !stack with
      | [] -> ()
      | top :: rest ->
        let path = stack_path !stack in
        let total, count = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals path) in
        Hashtbl.replace totals path (total +. (t.stamps.(i) -. top.f_start), count + 1);
        stack := rest
  done;
  Hashtbl.fold (fun path (total, count) acc -> (path, total, count) :: acc) totals []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* --- snapshots --- *)

let snapshot t ~label fields =
  if t.on then begin
    let seq = t.seq in
    t.seq <- seq + 1;
    t.snaps <- { sn_label = label; sn_span = stack_path t.stack; sn_fields = fields } :: t.snaps;
    record t k_instant (intern t label) 0.0;
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

(* --- GC telemetry --- *)

let install_gc_alarm t =
  if t.on && t.gc_alarm = None then begin
    let major = intern t "gc.major" and heap = intern t "gc.heap_words" in
    (* end of a major cycle: one timeline tick plus a heap-size counter
       sample *)
    t.gc_alarm <-
      Some
        (Gc.create_alarm (fun () ->
             record t k_instant major 0.0;
             record t k_counter heap (float_of_int (Gc.quick_stat ()).Gc.heap_words)))
  end

let remove_gc_alarm t =
  match t.gc_alarm with
  | None -> ()
  | Some a ->
    Gc.delete_alarm a;
    t.gc_alarm <- None

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

(* --- Chrome trace_event export --- *)

let kind_phase = [| "B"; "E"; "i"; "C" |]

let emit_event buf t i =
  let kind = Char.code (Bytes.get t.kinds i) and arg = t.args.(i) in
  Buffer.add_string buf ",\n{\"name\":";
  Json.escape_to buf t.names_by_id.(t.names.(i));
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":0"
                           kind_phase.(kind) (t.stamps.(i) *. 1e6));
  if kind = k_instant then
    Buffer.add_string buf (Printf.sprintf ",\"s\":\"t\",\"args\":{\"v\":%s}" (Json.float_repr arg))
  else if kind = k_counter then
    Buffer.add_string buf (Printf.sprintf ",\"args\":{\"value\":%s}" (Json.float_repr arg));
  Buffer.add_string buf "}"

let write_chrome_json t path =
  if not t.on then invalid_arg "Obs.write_chrome_json: the null context has no events";
  (* a GC alarm may record while the buffer below allocates: export the
     events recorded up to now, and count exactly those *)
  let n = t.len in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\n";
  Buffer.add_string buf (Printf.sprintf "\"otherData\":{\"epoch_s\":%s,\"recorded_events\":%d},\n"
                           (Json.float_repr t.ep) n);
  Buffer.add_string buf "\"traceEvents\":[\n";
  (* metadata so Perfetto labels the process (the executable) and its lane *)
  let exe = Filename.basename Sys.executable_name in
  let label = Option.value ~default:exe (Filename.chop_suffix_opt ~suffix:".exe" exe) in
  Buffer.add_string buf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":";
  Json.escape_to buf label;
  Buffer.add_string buf "}}";
  Buffer.add_string buf
    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}}";
  for i = 0 to n - 1 do
    emit_event buf t i
  done;
  Buffer.add_string buf "\n]}\n";
  Json.write_file path (fun oc -> Buffer.output_buffer oc buf)
