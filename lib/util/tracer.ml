(* Low-overhead streaming tracer.

   Design: one preallocated struct-of-arrays ring. An event is a
   fixed-size record — kind byte, interned name id, monotonic
   timestamp, one float argument — written with three array stores and
   a Bytes store, no allocation, no lock. The program records from one
   domain, so the hot path needs no synchronization at all.

   Two overflow policies:
   - without a spill file the ring wraps, overwriting the oldest event
     and counting it in the ring's [dropped] tally (exact by
     construction: one overwrite = one drop);
   - with [~spill:path] a full ring is serialized to disk in one chunk
     (20 bytes/event, format below) and reset, making the trace
     lossless at the cost of a rare buffered write under the tracer
     mutex.

   Spill record layout (little-endian, 20 bytes):
     byte 0      kind (0=begin 1=end 2=instant 3=counter)
     byte 1      reserved (0)
     bytes 2-3   interned name id (u16)
     bytes 4-11  timestamp, seconds since tracer creation (f64)
     bytes 12-19 argument (f64)
   Interned name strings live only in the tracer, so the spill file is
   an overflow buffer for the live process, not a standalone archive:
   [write_chrome_json] on the same tracer resolves the names.

   The exporter emits Chrome trace_event JSON (one event object per
   line) which Perfetto and chrome://tracing open directly; see
   docs/OBSERVABILITY.md for the schema and recipe. *)

type name = int

type ring = {
  kinds : Bytes.t;
  names : int array;
  stamps : float array;
  args : float array;
  mutable next : int; (* next write slot *)
  mutable filled : int; (* live slots, <= capacity *)
  mutable total : int; (* events ever recorded *)
  mutable dropped : int; (* events overwritten before export/spill *)
}

type spill = {
  sp_path : string;
  sp_scratch : Bytes.t; (* capacity * 20, reused for every chunk *)
  mutable sp_oc : out_channel option;
  mutable sp_records : int;
}

type t = {
  on : bool;
  cap : int;
  ring : ring;
  lock : Mutex.t; (* guards interning and the spill channel *)
  name_ids : (string, int) Hashtbl.t;
  mutable names_by_id : string array;
  mutable n_names : int;
  spill : spill option;
  t0 : float; (* monotonic base: stamps are relative to this *)
  run_epoch : float; (* the one wall-clock anchor, for correlation *)
  mutable gc_alarm : Gc.alarm option;
  mutable gc_major_name : name;
  mutable gc_heap_name : name;
}

let record_bytes = 20

let make_ring cap =
  {
    kinds = Bytes.make cap '\000';
    names = Array.make cap 0;
    stamps = Array.make cap 0.0;
    args = Array.make cap 0.0;
    next = 0;
    filled = 0;
    total = 0;
    dropped = 0;
  }

let null =
  {
    on = false;
    cap = 0;
    ring = make_ring 0;
    lock = Mutex.create ();
    name_ids = Hashtbl.create 1;
    names_by_id = [||];
    n_names = 0;
    spill = None;
    t0 = 0.0;
    run_epoch = 0.0;
    gc_alarm = None;
    gc_major_name = 0;
    gc_heap_name = 0;
  }

let create ?(capacity = 65536) ?spill () =
  if capacity < 2 then invalid_arg "Tracer.create: capacity must be >= 2";
  let spill =
    Option.map
      (fun path ->
        { sp_path = path; sp_scratch = Bytes.create (capacity * record_bytes); sp_oc = None; sp_records = 0 })
      spill
  in
  {
    on = true;
    cap = capacity;
    ring = make_ring capacity;
    lock = Mutex.create ();
    name_ids = Hashtbl.create 64;
    names_by_id = Array.make 64 "";
    n_names = 0;
    spill;
    t0 = Wall_clock.now ();
    run_epoch = Wall_clock.epoch ();
    gc_alarm = None;
    gc_major_name = 0;
    gc_heap_name = 0;
  }

let enabled t = t.on
let epoch t = t.run_epoch

let intern t s =
  if not t.on then 0
  else begin
    Mutex.lock t.lock;
    let id =
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
    in
    Mutex.unlock t.lock;
    id
  end

let name_string t id = if id >= 0 && id < t.n_names then t.names_by_id.(id) else "?"

(* Serialize the ring's live slots (chronological) into the spill file
   and reset the ring, under the mutex that also guards the channel. *)
let flush_ring t =
  match t.spill with
  | None -> ()
  | Some sp ->
    let tr = t.ring in
    if tr.filled > 0 then begin
      Mutex.lock t.lock;
      (try
         let oc =
           match sp.sp_oc with
           | Some oc -> oc
           | None ->
             let oc = open_out_bin sp.sp_path in
             sp.sp_oc <- Some oc;
             oc
         in
         let start = if tr.filled = t.cap then tr.next else 0 in
         for k = 0 to tr.filled - 1 do
           let i = (start + k) mod t.cap in
           let off = k * record_bytes in
           Bytes.unsafe_set sp.sp_scratch off (Bytes.unsafe_get tr.kinds i);
           Bytes.set sp.sp_scratch (off + 1) '\000';
           Bytes.set_int16_le sp.sp_scratch (off + 2) (min tr.names.(i) 0xFFFF);
           Bytes.set_int64_le sp.sp_scratch (off + 4) (Int64.bits_of_float tr.stamps.(i));
           Bytes.set_int64_le sp.sp_scratch (off + 12) (Int64.bits_of_float tr.args.(i))
         done;
         output oc sp.sp_scratch 0 (tr.filled * record_bytes);
         sp.sp_records <- sp.sp_records + tr.filled;
         tr.filled <- 0;
         tr.next <- 0
       with e ->
         Mutex.unlock t.lock;
         raise e);
      Mutex.unlock t.lock
    end

(* Inlined down to the callers of [sample]: a float argument passed to a
   call is boxed, and the record path must not allocate. *)
let[@inline] record t kind name arg =
  if t.on then begin
    let tr = t.ring in
    if tr.filled = t.cap && t.spill <> None then flush_ring t;
    let i = tr.next in
    Bytes.unsafe_set tr.kinds i (Char.unsafe_chr kind);
    Array.unsafe_set tr.names i name;
    Array.unsafe_set tr.stamps i (Wall_clock.now () -. t.t0);
    Array.unsafe_set tr.args i arg;
    tr.next <- (if i + 1 = t.cap then 0 else i + 1);
    if tr.filled = t.cap then tr.dropped <- tr.dropped + 1 else tr.filled <- tr.filled + 1;
    tr.total <- tr.total + 1
  end

let span_begin t name = record t 0 name 0.0
let span_end t name = record t 1 name 0.0
let instant t ?(arg = 0.0) name = record t 2 name arg
let[@inline] sample t name v = record t 3 name v

let recorded t = t.ring.total
let dropped t = t.ring.dropped
let spilled t = match t.spill with None -> 0 | Some sp -> sp.sp_records

let flush t =
  if t.on then begin
    flush_ring t;
    Mutex.lock t.lock;
    (match t.spill with Some { sp_oc = Some oc; _ } -> Stdlib.flush oc | _ -> ());
    Mutex.unlock t.lock
  end

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

let remove_gc_alarm t =
  match t.gc_alarm with
  | None -> ()
  | Some a ->
    Gc.delete_alarm a;
    t.gc_alarm <- None

let close t =
  if t.on then begin
    remove_gc_alarm t;
    flush t;
    Mutex.lock t.lock;
    (match t.spill with
    | Some ({ sp_oc = Some oc; _ } as sp) ->
      close_out_noerr oc;
      sp.sp_oc <- None
    | _ -> ());
    Mutex.unlock t.lock
  end

(* --- Chrome trace_event export --- *)

let kind_phase = [| "B"; "E"; "i"; "C" |]

let emit_event buf t ~depth ~first kind name_id ts arg =
  (* suppress end events whose begin was overwritten in the ring: they
     would corrupt the nesting of everything below them *)
  let keep =
    match kind with
    | 0 ->
      incr depth;
      true
    | 1 ->
      if !depth > 0 then begin
        decr depth;
        true
      end
      else false
    | _ -> true
  in
  if keep then begin
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf "{\"name\":";
    Json.escape_to buf (name_string t name_id);
    Buffer.add_string buf (Printf.sprintf ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":0"
                             kind_phase.(kind) (ts *. 1e6));
    (match kind with
    | 2 -> Buffer.add_string buf (Printf.sprintf ",\"s\":\"t\",\"args\":{\"v\":%s}" (Json.float_repr arg))
    | 3 -> Buffer.add_string buf (Printf.sprintf ",\"args\":{\"value\":%s}" (Json.float_repr arg))
    | _ -> ());
    Buffer.add_string buf "}"
  end

let write_chrome_json t path =
  if not t.on then invalid_arg "Tracer.write_chrome_json: null tracer has no events";
  flush t;
  (* with a spill file every event (including the in-memory residue just
     flushed) is on disk; without one, export straight from the rings *)
  let depth = ref 0 in
  let first = ref true in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\n";
  Buffer.add_string buf (Printf.sprintf "\"otherData\":{\"epoch_s\":%s,\"dropped_events\":%d,\"recorded_events\":%d},\n"
                           (Json.float_repr t.run_epoch) (dropped t) (recorded t));
  Buffer.add_string buf "\"traceEvents\":[\n";
  (* metadata so Perfetto labels the process and its one lane *)
  Buffer.add_string buf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"css_opt\"}}";
  Buffer.add_string buf
    ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}}";
  first := false;
  (match t.spill with
  | Some sp when Sys.file_exists sp.sp_path ->
    let ic = open_in_bin sp.sp_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec_buf = Bytes.create record_bytes in
        let n = in_channel_length ic / record_bytes in
        for _ = 1 to n do
          really_input ic rec_buf 0 record_bytes;
          let kind = Char.code (Bytes.get rec_buf 0) in
          let name_id = Bytes.get_uint16_le rec_buf 2 in
          let ts = Int64.float_of_bits (Bytes.get_int64_le rec_buf 4) in
          let arg = Int64.float_of_bits (Bytes.get_int64_le rec_buf 12) in
          if kind <= 3 then emit_event buf t ~depth ~first kind name_id ts arg
        done)
  | _ ->
    let tr = t.ring in
    let start = if tr.filled = t.cap then tr.next else 0 in
    for j = 0 to tr.filled - 1 do
      let i = (start + j) mod t.cap in
      emit_event buf t ~depth ~first
        (Char.code (Bytes.get tr.kinds i))
        tr.names.(i) tr.stamps.(i) tr.args.(i)
    done);
  Buffer.add_string buf "\n]}\n";
  Json.write_file path (fun oc -> Buffer.output_buffer oc buf)

let spill_path t = Option.map (fun sp -> sp.sp_path) t.spill
