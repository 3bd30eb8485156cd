(* Low-overhead streaming tracer.

   Design: one append-only struct-of-arrays log. An event is a
   fixed-size record — kind byte, interned name id, monotonic
   timestamp, one float argument — written with three array stores and
   a Bytes store into the next slot, no allocation, no lock. The
   program records from one domain, so the hot path needs no
   synchronization at all. A full log doubles its columns; nothing is
   ever overwritten or written to disk before export.

   The exporter emits Chrome trace_event JSON (one event object per
   line) which Perfetto and chrome://tracing open directly; see
   docs/OBSERVABILITY.md for the schema and recipe. *)

type name = int

type t = {
  on : bool;
  mutable kinds : Bytes.t;
  mutable names : int array;
  mutable stamps : float array;
  mutable args : float array;
  mutable len : int; (* events recorded = next write slot *)
  name_ids : (string, int) Hashtbl.t;
  mutable names_by_id : string array;
  mutable n_names : int;
  t0 : float; (* monotonic base: stamps are relative to this *)
  run_epoch : float; (* the one wall-clock anchor, for correlation *)
  mutable gc_alarm : Gc.alarm option;
  mutable gc_major_name : name;
  mutable gc_heap_name : name;
}

(* ~100 KB of columns: more than any css_opt or css_serve run records,
   and large enough that every grown column is allocated directly on
   the major heap *)
let initial_events = 4096

let make on n =
  {
    on;
    kinds = Bytes.make n '\000';
    names = Array.make n 0;
    stamps = Array.make n 0.0;
    args = Array.make n 0.0;
    len = 0;
    name_ids = Hashtbl.create (if on then 64 else 1);
    names_by_id = Array.make (if on then 64 else 0) "";
    n_names = 0;
    t0 = (if on then Wall_clock.now () else 0.0);
    run_epoch = (if on then Wall_clock.epoch () else 0.0);
    gc_alarm = None;
    gc_major_name = 0;
    gc_heap_name = 0;
  }

let null = make false 0
let create () = make true initial_events
let enabled t = t.on

let intern t s =
  if not t.on then 0
  else
    match Hashtbl.find_opt t.name_ids s with
    | Some id -> id
    | None ->
      let id = t.n_names in
      if id >= Array.length t.names_by_id then begin
        let bigger = Array.make (2 * Array.length t.names_by_id) "" in
        Array.blit t.names_by_id 0 bigger 0 t.n_names;
        t.names_by_id <- bigger
      end;
      t.names_by_id.(id) <- s;
      t.n_names <- id + 1;
      Hashtbl.add t.name_ids s id;
      id

let name_string t id = if id >= 0 && id < t.n_names then t.names_by_id.(id) else "?"

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
   call is boxed, and the record path must not allocate. *)
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

let span_begin t name = record t 0 name 0.0
let span_end t name = record t 1 name 0.0
let instant t ?(arg = 0.0) name = record t 2 name arg
let[@inline] sample t name v = record t 3 name v
let recorded t = t.len

(* --- GC telemetry --- *)

let install_gc_alarm t =
  if t.on && t.gc_alarm = None then begin
    t.gc_major_name <- intern t "gc.major";
    t.gc_heap_name <- intern t "gc.heap_words";
    let alarm =
      Gc.create_alarm (fun () ->
          (* end of a major cycle: one timeline tick plus a heap-size
             counter sample *)
          record t 2 t.gc_major_name 0.0;
          record t 3 t.gc_heap_name (float_of_int (Gc.quick_stat ()).Gc.heap_words))
    in
    t.gc_alarm <- Some alarm
  end

let close t =
  match t.gc_alarm with
  | None -> ()
  | Some a ->
    Gc.delete_alarm a;
    t.gc_alarm <- None

(* --- Chrome trace_event export --- *)

let kind_phase = [| "B"; "E"; "i"; "C" |]

let emit_event buf t i =
  let kind = Char.code (Bytes.get t.kinds i) and arg = t.args.(i) in
  Buffer.add_string buf ",\n{\"name\":";
  Json.escape_to buf (name_string t t.names.(i));
  Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":0"
                           kind_phase.(kind) (t.stamps.(i) *. 1e6));
  (match kind with
  | 2 -> Buffer.add_string buf (Printf.sprintf ",\"s\":\"t\",\"args\":{\"v\":%s}" (Json.float_repr arg))
  | 3 -> Buffer.add_string buf (Printf.sprintf ",\"args\":{\"value\":%s}" (Json.float_repr arg))
  | _ -> ());
  Buffer.add_string buf "}"

let write_chrome_json t path =
  if not t.on then invalid_arg "Tracer.write_chrome_json: null tracer has no events";
  (* a GC alarm may record while the buffer below allocates: export the
     events recorded up to now, and count exactly those *)
  let n = t.len in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\n";
  Buffer.add_string buf (Printf.sprintf "\"otherData\":{\"epoch_s\":%s,\"recorded_events\":%d},\n"
                           (Json.float_repr t.run_epoch) n);
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
