module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Graph = Css_sta.Graph
module Extract = Css_seqgraph.Extract
module Evaluator = Css_eval.Evaluator
module Point = Css_geometry.Point
module Diag = Css_util.Diag
module Fnv = Css_util.Fnv
module Timer = Css_sta.Timer
module Budget = Css_util.Budget

let log_src = Logs.Src.create "css.persist" ~doc:"durable flow checkpoints"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Interrupt flag and signal handlers                                  *)

(* One process-global flag: signal handlers may run on any thread at any
   time, so the only thing they do is flip it; the flow polls it at
   iteration and phase boundaries (cooperative interruption keeps every
   stop on a state the checkpoint format can represent). *)
let interrupt_flag = Atomic.make false
let interrupted () = Atomic.get interrupt_flag
let request_interrupt () = Atomic.set interrupt_flag true
let clear_interrupt () = Atomic.set interrupt_flag false

type handlers = (int * Sys.signal_behavior) list

let install_handlers ?(signals = [ Sys.sigint; Sys.sigterm ]) ?on_signal () =
  let handle n =
    request_interrupt ();
    match on_signal with None -> () | Some f -> f n
  in
  List.filter_map
    (fun s ->
      match Sys.signal s (Sys.Signal_handle handle) with
      | prev -> Some (s, prev)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    signals

let uninstall_handlers saved =
  List.iter
    (fun (s, prev) ->
      try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
    saved

let with_signal_handlers f =
  let saved = install_handlers () in
  Fun.protect ~finally:(fun () -> uninstall_handlers saved) f

(* ------------------------------------------------------------------ *)
(* The run-state record                                                *)

type trace_point = {
  round : int;
  phase : string;
  iter : int;
  wns_early : float;
  tns_early : float;
  wns_late : float;
  tns_late : float;
}

(* A restorable snapshot of everything the OPT passes mutate, scored by
   the independent evaluator (which sees the physically realized state —
   realization zeroes the scheduled latencies it hosts). The restore
   arrays are indexed by the dense cell ids the design-text round-trip
   preserves, and the evaluator report is stored rather than re-derived
   so a resumed run's final rollback compares the exact same floats an
   uninterrupted run would. *)
type checkpoint = {
  label : string;
  ck_ffs : Design.cell_id array;
  ck_latencies : float array;  (* scheduled, per entry of [ck_ffs] *)
  ck_lcb_of : Design.cell_id array;  (* -1 when unresolved *)
  ck_x : float array;  (* position per cell id *)
  ck_y : float array;
  ck_masters : string array;  (* per cell id *)
  ck_report : Evaluator.report;
}

type progress = {
  mutable phases_done : int;
  mutable hold_done : bool;
  mutable iterations : int;
  mutable edges : int;
  mutable cones : int;
  mutable stall_best : float;
  mutable stall_count : int;
  mutable stop : string option;
  hpwl_before : float;
  css_seconds : float;
  opt_seconds : float;
  mutable degradations_rev : string list;
  mutable trace_rev : trace_point list;
  mutable best : checkpoint option;
}

let fresh_progress ~hpwl_before =
  {
    phases_done = 0;
    hold_done = false;
    iterations = 0;
    edges = 0;
    cones = 0;
    stall_best = neg_infinity;
    stall_count = 0;
    stop = None;
    hpwl_before;
    css_seconds = 0.0;
    opt_seconds = 0.0;
    degradations_rev = [];
    trace_rev = [];
    best = None;
  }

type settings = {
  rounds : int;
  timer : Timer.config;
  use_resize : bool;
  use_cts : bool;
  rollback : bool;
  final_eval : bool;
  budget : Budget.limits;
}

let path ~dir = Filename.concat dir "checkpoint.ckpt"
let journal_path ~dir = Filename.concat dir "checkpoint.journal"

type live = {
  lv_algo : string;
  lv_settings : settings;
  lv_progress : progress;
  lv_rung : int;
  lv_design : Design.t;
  lv_engines : (string * Extract.snapshot) list;
}

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let magic = "css-checkpoint"

(* Version 4 carries the session's settings (the base's [settings] line
   replaced version 3's [rounds], and every journal record repeats it);
   older files are rejected, not migrated. A journal's records follow
   the format of the base it names. *)
let version = 4
let journal_magic = "css-journal"
let journal_version = 1
let fstr = Io.float_to_string
let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt

(* Array lines go straight into the buffer: one [Printf] and one
   [s ^ "\n"] copy per line would copy every ~100 kB array line twice.
   The key is always followed by a space, so an empty array reads
   ["key \n"], as the parser's [field] expects. *)
let add_array b key n add =
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ' ';
    add i
  done;
  Buffer.add_char b '\n'

let add_floats b key a =
  add_array b key (Array.length a) (fun i -> Buffer.add_string b (fstr a.(i)))

let add_ints b key a =
  add_array b key (Array.length a) (fun i -> Buffer.add_string b (string_of_int a.(i)))

let add_id b tag id =
  Buffer.add_char b tag;
  Buffer.add_string b (string_of_int id)

let add_launcher b = function
  | Graph.Launch_ff c -> add_id b 'f' c
  | Graph.Launch_port p -> add_id b 'p' p

let add_endpoint b = function
  | Graph.End_ff c -> add_id b 'f' c
  | Graph.End_port p -> add_id b 'p' p

(* Every setting on one line, the floats bit for bit, a limit that is
   not set as [-]. *)
let add_settings b s =
  let t = s.timer and l = s.budget in
  let bit v = if v then 1 else 0 and opt f = function None -> "-" | Some v -> f v in
  line b "settings %d %s %s %s %d %d %d %d %s %s %s" s.rounds (fstr t.Timer.early_derate)
    (fstr t.Timer.setup_uncertainty) (fstr t.Timer.hold_uncertainty) (bit s.use_resize)
    (bit s.use_cts) (bit s.rollback) (bit s.final_eval) (opt fstr l.Budget.wall_seconds)
    (opt string_of_int l.Budget.rss_bytes) (fstr l.Budget.soft_frac)

(* The base and the journal records share their sections: the run's
   scalar fields (a base puts the movement anchors between its head and
   its tail), trace points, the best checkpoint and the engines. *)
let add_run_head b p =
  line b "phases-done %d" p.phases_done;
  line b "hold-done %d" (if p.hold_done then 1 else 0);
  line b "iterations %d" p.iterations;
  line b "edges %d" p.edges;
  line b "cones %d" p.cones;
  line b "stall-best %s" (fstr p.stall_best);
  line b "stall-count %d" p.stall_count;
  line b "stop %s" (match p.stop with None -> "-" | Some s -> s);
  line b "hpwl-before %s" (fstr p.hpwl_before)

let add_run_tail b p ~rung =
  line b "css-seconds %s" (fstr p.css_seconds);
  line b "opt-seconds %s" (fstr p.opt_seconds);
  line b "rung %d" rung;
  line b "degraded %d" (List.length p.degradations_rev);
  List.iter (fun d -> line b "d %s" d) (List.rev p.degradations_rev)

let add_trace_point b t =
  line b "t %d %s %d %s %s %s %s" t.round t.phase t.iter (fstr t.wns_early) (fstr t.tns_early)
    (fstr t.wns_late) (fstr t.tns_late)

(* bit equality without boxing: equal and, for zeros, of one sign; a
   NaN never matches, which at worst writes an unchanged value again *)
let[@inline] same_bits (a : float) (b : float) = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

(* A base writes the best checkpoint's positions in full. A journal
   record passes [anchors], the design whose movement anchors the
   reader rebuilds, and lists only the positions off their anchors
   (every position past the design's cells): most cells never move, so
   they need no formatting. *)
let add_best ?anchors b = function
  | None -> line b "best -"
  | Some cp ->
    let r = cp.ck_report in
    line b "best %s" cp.label;
    line b "bn %d %d %d" (Array.length cp.ck_ffs) (Array.length cp.ck_x)
      (List.length r.Evaluator.constraint_errors);
    add_ints b "bf" cp.ck_ffs;
    add_floats b "bl" cp.ck_latencies;
    add_ints b "bb" cp.ck_lcb_of;
    (match anchors with
    | None ->
      add_floats b "bx" cp.ck_x;
      add_floats b "by" cp.ck_y
    | Some d ->
      let anchored c =
        c < Design.num_cells d
        && same_bits (Design.cell_orig_x d c) cp.ck_x.(c)
        && same_bits (Design.cell_orig_y d c) cp.ck_y.(c)
      in
      let off = ref [] in
      for c = Array.length cp.ck_x - 1 downto 0 do
        if not (anchored c) then off := c :: !off
      done;
      line b "bp %d" (List.length !off);
      List.iter (fun c -> line b "p %d %s %s" c (fstr cp.ck_x.(c)) (fstr cp.ck_y.(c))) !off);
    add_array b "bm" (Array.length cp.ck_masters) (fun c -> Buffer.add_string b cp.ck_masters.(c));
    line b "br %s %s %s %s %d %d %s"
      (fstr r.Evaluator.wns_early)
      (fstr r.Evaluator.tns_early)
      (fstr r.Evaluator.wns_late)
      (fstr r.Evaluator.tns_late)
      r.Evaluator.num_early_violations r.Evaluator.num_late_violations
      (fstr r.Evaluator.hpwl);
    List.iter (fun e -> line b "be %s" e) r.Evaluator.constraint_errors

let add_engines b engines =
  line b "engines %d" (List.length engines);
  List.iter
    (fun (slot, (sn : Extract.snapshot)) ->
      line b "engine %s %s %d %d %d %d %d %d %d" slot
        (Extract.engine_name sn.Extract.sn_engine)
        sn.Extract.sn_edges_extracted sn.Extract.sn_cone_nodes sn.Extract.sn_rounds
        sn.Extract.sn_pending_first
        (List.length sn.Extract.sn_edges)
        (Array.length sn.Extract.sn_bound)
        (Array.length sn.Extract.sn_expanded);
      (* every record repeats the edges: no [Printf] per edge line *)
      List.iter
        (fun (e : Extract.edge_snap) ->
          Buffer.add_string b "e ";
          add_launcher b e.Extract.es_launcher;
          Buffer.add_char b ' ';
          add_endpoint b e.Extract.es_endpoint;
          Buffer.add_char b ' ';
          Buffer.add_string b (fstr e.Extract.es_delay);
          Buffer.add_char b ' ';
          Buffer.add_string b (fstr e.Extract.es_weight);
          Buffer.add_char b '\n')
        sn.Extract.sn_edges;
      if Array.length sn.Extract.sn_bound > 0 then add_floats b "bound" sn.Extract.sn_bound;
      if Array.length sn.Extract.sn_expanded > 0 then
        line b "expanded %s"
          (String.init (Array.length sn.Extract.sn_expanded) (fun i ->
               if sn.Extract.sn_expanded.(i) then '1' else '0')))
    engines;
  line b "end"

let body_of_live lv =
  let d = lv.lv_design and p = lv.lv_progress in
  let text = Io.to_string d in
  let b = Buffer.create (String.length text + 4096) in
  line b "algo %s" lv.lv_algo;
  line b "design %s" (Design.name d);
  add_settings b lv.lv_settings;
  add_run_head b p;
  (* movement anchors: a reparsed design re-anchors at its parsed
     positions, so the original run's legality reference is carried
     explicitly *)
  let n = Design.num_cells d in
  line b "anchors %d" n;
  add_array b "ax" n (fun c -> Buffer.add_string b (fstr (Design.cell_orig_x d c)));
  add_array b "ay" n (fun c -> Buffer.add_string b (fstr (Design.cell_orig_y d c)));
  add_run_tail b p ~rung:lv.lv_rung;
  line b "trace %d" (List.length p.trace_rev);
  List.iter (add_trace_point b) (List.rev p.trace_rev);
  add_best b p.best;
  line b "design-text %d" (String.length text);
  Buffer.add_string b text;
  Buffer.add_char b '\n';
  add_engines b lv.lv_engines;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let io_error file e = Sys_error (Printf.sprintf "%s: %s" file (Unix.error_message e))

(* tmp + fsync + rename: a crash at any instant leaves either the old
   file or the complete new one, never a named-but-empty file *)
let write_atomic final pieces =
  let tmp = final ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     List.iter (output_string oc) pieces;
     flush oc;
     (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp final

(* One [write] per record, then fsync: a crash leaves at most a short
   last record, which [load] drops as a torn tail. *)
let append_file file s =
  let fd =
    try Unix.openfile file [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
    with Unix.Unix_error (e, _, _) -> raise (io_error file e)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      try
        let n = String.length s in
        let off = ref 0 in
        while !off < n do
          off := !off + Unix.write_substring fd s !off (n - !off)
        done;
        try Unix.fsync fd with Unix.Unix_error _ -> ()
      with Unix.Unix_error (e, _, _) -> raise (io_error file e))

let journal_header hash = Printf.sprintf "%s %d %016Lx\n" journal_magic journal_version hash

(* The base, then an empty journal naming it. A crash between the two
   renames leaves the old journal beside the new base; its hash names
   the old base, so it is never replayed. The body hash is FNV-1a 64
   ({!Css_util.Fnv}): plenty to reject the failure modes that matter
   here (truncation survived by the structure check, bit rot,
   concurrent partial overwrite) — an integrity check, not an
   authenticity one. Returns the base's hash and size. *)
let write_base ~dir lv =
  let body = body_of_live lv in
  let hash = Fnv.of_string body in
  let header = Printf.sprintf "%s %d\nhash %016Lx\n" magic version hash in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_atomic (path ~dir) [ header; body ];
  write_atomic (journal_path ~dir) [ journal_header hash ];
  Log.debug (fun m ->
      m "checkpoint base saved: %s (%d phases done)" (path ~dir) lv.lv_progress.phases_done);
  (hash, String.length header + String.length body)

let save ~dir lv = ignore (write_base ~dir lv)

(* {2 The journal handle}

   A record carries the lines the design's change set lists
   ({!Design.take_changes}), each with its current value, and the trace
   points and best checkpoint unless they are the persisted ones. *)

type files = {
  base_bytes : int;
  mutable journal_bytes : int;  (* header included *)
  design : Design.t;
  cells : int;
  nets : int;
  pins : int;
  mutable trace : trace_point list;  (* physically the persisted list *)
  mutable best : checkpoint option;
}

(* What the base and the journal hold from here on is [lv]: the design's
   change set restarts empty. *)
let files_of lv ~base_bytes ~journal_bytes =
  let d = lv.lv_design in
  ignore (Design.take_changes d);
  {
    base_bytes;
    journal_bytes;
    design = d;
    cells = Design.num_cells d;
    nets = Design.num_nets d;
    pins = Design.num_pins d;
    trace = lv.lv_progress.trace_rev;
    best = lv.lv_progress.best;
  }

(* A record continues the base only while it addresses the same cells,
   nets and pins; a replaced design or one that grew needs a new base. *)
let same_shape f d =
  f.design == d
  && f.cells = Design.num_cells d
  && f.nets = Design.num_nets d
  && f.pins = Design.num_pins d

(* [cur] extends [old] when [old] is one of its tails: trace lists only
   grow by consing within a run, and a new run starts a new list. *)
let trace_delta ~old cur =
  let rec go l acc =
    if l == old then Some acc else match l with [] -> None | x :: rest -> go rest (x :: acc)
  in
  match go cur [] with
  | Some fresh -> (List.length old, fresh)
  | None -> (0, List.rev cur)

let record_body f (ch : Design.changes) lv =
  let d = lv.lv_design and p = lv.lv_progress in
  let b = Buffer.create 4096 in
  add_settings b lv.lv_settings;
  add_run_head b p;
  add_run_tail b p ~rung:lv.lv_rung;
  let kept, fresh = trace_delta ~old:f.trace p.trace_rev in
  line b "trace %d %d" kept (List.length fresh);
  List.iter (add_trace_point b) fresh;
  line b "anchors %d" (Array.length ch.anchors);
  Array.iter
    (fun c ->
      let a = Design.cell_orig_pos d c in
      line b "a %d %s %s" c (fstr a.Point.x) (fstr a.Point.y))
    ch.anchors;
  if p.best != f.best then add_best ~anchors:d b p.best else line b "best =";
  let opt = function Some l -> l | None -> "-" in
  line b "edits %d"
    (Array.length ch.cells + Array.length ch.nets + Array.length ch.latencies
   + Array.length ch.bounds);
  Array.iter (fun c -> line b "c %d %s" c (Io.cell_line d c)) ch.cells;
  Array.iter (fun n -> line b "n %d %s" n (Io.net_line d n)) ch.nets;
  Array.iter (fun c -> line b "l %d %s" c (opt (Io.latency_line d c))) ch.latencies;
  Array.iter (fun c -> line b "b %d %s" c (opt (Io.bounds_line d c))) ch.bounds;
  add_engines b lv.lv_engines;
  Buffer.contents b

type journal = {
  j_dir : string;
  mutable files : files option;  (* [None]: the next write is a base *)
}

let journal ~dir = { j_dir = dir; files = None }

let base j lv =
  j.files <- None;
  let hash, bytes = write_base ~dir:j.j_dir lv in
  let journal_bytes = String.length (journal_header hash) in
  j.files <- Some (files_of lv ~base_bytes:bytes ~journal_bytes);
  (`Base, bytes)

let write j lv =
  match j.files with
  | Some f when same_shape f lv.lv_design ->
    let body = record_body f (Design.take_changes lv.lv_design) lv in
    let framed = Printf.sprintf "record %d %016Lx\n%s" (String.length body) (Fnv.of_string body) body in
    let n = String.length framed in
    if f.journal_bytes + n >= f.base_bytes then base j lv
    else begin
      (* a failed append may leave a torn tail behind, and the changes it
         carried are taken: until this one lands, the next write is a
         base *)
      j.files <- None;
      append_file (journal_path ~dir:j.j_dir) framed;
      f.journal_bytes <- f.journal_bytes + n;
      f.trace <- lv.lv_progress.trace_rev;
      f.best <- lv.lv_progress.best;
      j.files <- Some f;
      (`Record, n)
    end
  | _ -> base j lv

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Bad of Diag.t

let bad ?file code msg = raise (Bad (Diag.error ?file ~code msg))

(* A byte cursor over the whole file: line-oriented fields plus
   byte-counted blobs from one buffer, so truncation anywhere is
   detected structurally (CKPT-004) instead of surfacing as a confusing
   field error. *)
type cursor = { buf : string; file : string; mutable pos : int }

let next_line cur =
  if cur.pos >= String.length cur.buf then
    bad ~file:cur.file "CKPT-004" "unexpected end of file (truncated checkpoint)";
  match String.index_from_opt cur.buf cur.pos '\n' with
  | None ->
    (* a final unterminated line is itself evidence of a torn write *)
    bad ~file:cur.file "CKPT-004" "unexpected end of file (truncated checkpoint)"
  | Some nl ->
    let s = String.sub cur.buf cur.pos (nl - cur.pos) in
    cur.pos <- nl + 1;
    s

let take_blob cur n =
  if n < 0 || cur.pos + n + 1 > String.length cur.buf then
    bad ~file:cur.file "CKPT-004"
      (Printf.sprintf "blob of %d bytes extends past end of file (truncated checkpoint)" n);
  let s = String.sub cur.buf cur.pos n in
  (if cur.buf.[cur.pos + n] <> '\n' then
     bad ~file:cur.file "CKPT-005" "blob is not newline-terminated");
  cur.pos <- cur.pos + n + 1;
  s

let field cur key =
  let l = next_line cur in
  let pfx = key ^ " " in
  if String.length l >= String.length pfx && String.sub l 0 (String.length pfx) = pfx then
    String.sub l (String.length pfx) (String.length l - String.length pfx)
  else bad ~file:cur.file "CKPT-005" (Printf.sprintf "expected '%s ...', got '%s'" key l)

let int_of cur key s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "field %s: not an integer: '%s'" key s)

let float_of cur key s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "field %s: not a float: '%s'" key s)

let int_field cur key = int_of cur key (field cur key)
let float_field cur key = float_of cur key (field cur key)

let split_ws s = String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let check_count cur key ~expected got =
  if got <> expected then
    bad ~file:cur.file "CKPT-005"
      (Printf.sprintf "%s: expected %d entries, got %d" key expected got)

(* One space-separated array line whose length an earlier count
   announced; [conv] parses each token. *)
let array_field cur key n conv =
  let toks = Array.of_list (split_ws (field cur key)) in
  check_count cur key ~expected:n (Array.length toks);
  Array.map (conv cur key) toks

let string_of _ _ s = s

let hex64 cur key s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some h -> h
  | None -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "malformed %s" key)

let dec_launcher cur s =
  let n = String.length s in
  if n < 2 then bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad launcher '%s'" s)
  else
    let id = int_of cur "launcher" (String.sub s 1 (n - 1)) in
    match s.[0] with
    | 'f' -> Graph.Launch_ff id
    | 'p' -> Graph.Launch_port id
    | _ -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad launcher '%s'" s)

let dec_endpoint cur s =
  let n = String.length s in
  if n < 2 then bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad endpoint '%s'" s)
  else
    let id = int_of cur "endpoint" (String.sub s 1 (n - 1)) in
    match s.[0] with
    | 'f' -> Graph.End_ff id
    | 'p' -> Graph.End_port id
    | _ -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "bad endpoint '%s'" s)

let engine_of_name cur = function
  | "full" -> Extract.Full
  | "essential" -> Extract.Essential
  | "iccss" -> Extract.Iccss
  | s -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "unknown engine '%s'" s)

let parse_settings cur =
  let flag key s = int_of cur key s <> 0 in
  let opt conv key = function "-" -> None | s -> Some (conv cur key s) in
  match split_ws (field cur "settings") with
  | [ rounds; derate; setup; hold; resize; cts; rollback; final_eval; wall; rss; soft ] ->
    {
      rounds = int_of cur "settings.rounds" rounds;
      timer =
        {
          Timer.early_derate = float_of cur "settings.early_derate" derate;
          setup_uncertainty = float_of cur "settings.setup_uncertainty" setup;
          hold_uncertainty = float_of cur "settings.hold_uncertainty" hold;
        };
      use_resize = flag "settings.use_resize" resize;
      use_cts = flag "settings.use_cts" cts;
      rollback = flag "settings.rollback" rollback;
      final_eval = flag "settings.final_eval" final_eval;
      budget =
        {
          Budget.wall_seconds = opt float_of "settings.wall_seconds" wall;
          rss_bytes = opt int_of "settings.rss_bytes" rss;
          soft_frac = float_of cur "settings.soft_frac" soft;
        };
    }
  | _ -> bad ~file:cur.file "CKPT-005" "malformed settings line"

let parse_run_head cur =
  let phases_done = int_field cur "phases-done" in
  let hold_done = int_field cur "hold-done" <> 0 in
  let iterations = int_field cur "iterations" in
  let edges = int_field cur "edges" in
  let cones = int_field cur "cones" in
  let stall_best = float_field cur "stall-best" in
  let stall_count = int_field cur "stall-count" in
  let stop = match field cur "stop" with "-" -> None | s -> Some s in
  let hpwl_before = float_field cur "hpwl-before" in
  {
    (fresh_progress ~hpwl_before) with
    phases_done;
    hold_done;
    iterations;
    edges;
    cones;
    stall_best;
    stall_count;
    stop;
  }

(* the tail fields into [p], and the rung *)
let parse_run_tail cur p =
  let css_seconds = float_field cur "css-seconds" in
  let opt_seconds = float_field cur "opt-seconds" in
  let rung = int_field cur "rung" in
  let ndeg = int_field cur "degraded" in
  let degradations = List.init ndeg (fun _ -> field cur "d") in
  ({ p with css_seconds; opt_seconds; degradations_rev = List.rev degradations }, rung)

let parse_trace_point cur =
  match split_ws (field cur "t") with
  | [ r; phase; i; we; te; wl; tl ] ->
    {
      round = int_of cur "t.round" r;
      phase;
      iter = int_of cur "t.iter" i;
      wns_early = float_of cur "t.wns_early" we;
      tns_early = float_of cur "t.tns_early" te;
      wns_late = float_of cur "t.wns_late" wl;
      tns_late = float_of cur "t.tns_late" tl;
    }
  | _ -> bad ~file:cur.file "CKPT-005" "malformed trace entry"

(* the best checkpoint after its [best <label>] line; a journal record's
   positions are the movement anchors of [anchors] but for those it
   lists *)
let parse_best ?anchors cur label =
  let nffs, ncells, nerrs =
    match split_ws (field cur "bn") with
    | [ a; b'; c ] -> (int_of cur "bn.ffs" a, int_of cur "bn.cells" b', int_of cur "bn.errs" c)
    | _ -> bad ~file:cur.file "CKPT-005" "malformed bn line"
  in
  let ck_ffs = array_field cur "bf" nffs int_of in
  let ck_latencies = array_field cur "bl" nffs float_of in
  let ck_lcb_of = array_field cur "bb" nffs int_of in
  let ck_x, ck_y =
    match anchors with
    | None ->
      let bx = array_field cur "bx" ncells float_of in
      let by = array_field cur "by" ncells float_of in
      (bx, by)
    | Some d ->
      if ncells < 0 then bad ~file:cur.file "CKPT-005" "negative bn cell count";
      let n = Design.num_cells d in
      let xs = Array.init ncells (fun c -> if c < n then Design.cell_orig_x d c else Float.nan) in
      let ys = Array.init ncells (fun c -> if c < n then Design.cell_orig_y d c else Float.nan) in
      for _ = 1 to int_field cur "bp" do
        match split_ws (field cur "p") with
        | [ c; x; y ] ->
          let c = int_of cur "p.cell" c in
          if c < 0 || c >= ncells then
            bad ~file:cur.file "CKPT-005" (Printf.sprintf "best position of cell %d out of range" c);
          xs.(c) <- float_of cur "p.x" x;
          ys.(c) <- float_of cur "p.y" y
        | _ -> bad ~file:cur.file "CKPT-005" "malformed best position entry"
      done;
      (xs, ys)
  in
  let ck_masters = array_field cur "bm" ncells string_of in
  let report =
    match split_ws (field cur "br") with
    | [ we; te; wl; tl; nev; nlv; hpwl ] ->
      {
        Evaluator.wns_early = float_of cur "br.wns_early" we;
        tns_early = float_of cur "br.tns_early" te;
        wns_late = float_of cur "br.wns_late" wl;
        tns_late = float_of cur "br.tns_late" tl;
        num_early_violations = int_of cur "br.nev" nev;
        num_late_violations = int_of cur "br.nlv" nlv;
        hpwl = float_of cur "br.hpwl" hpwl;
        constraint_errors = [];
      }
    | _ -> bad ~file:cur.file "CKPT-005" "malformed br line"
  in
  let errs = List.init nerrs (fun _ -> field cur "be") in
  {
    label;
    ck_ffs;
    ck_latencies;
    ck_lcb_of;
    ck_x;
    ck_y;
    ck_masters;
    ck_report = { report with Evaluator.constraint_errors = errs };
  }

(* With [~convert:false] the section is walked line by line but not
   converted, and reads as no engines: a later journal record replaces
   it anyway. *)
let parse_engines ?(convert = true) cur =
  let nengines = int_field cur "engines" in
  let engine () =
    match split_ws (field cur "engine") with
    | [ slot; name; extracted; cones; rounds; pending; nedges; nbound; nexpanded ] ->
      let nedges = int_of cur "engine.nedges" nedges in
      let nbound = int_of cur "engine.nbound" nbound in
      let nexpanded = int_of cur "engine.nexpanded" nexpanded in
      if not convert then begin
        for _ = 1 to nedges + Bool.to_int (nbound > 0) + Bool.to_int (nexpanded > 0) do
          ignore (next_line cur)
        done;
        None
      end
      else
        let edges =
          List.init nedges (fun _ ->
              match split_ws (field cur "e") with
              | [ l; e; delay; weight ] ->
                {
                  Extract.es_launcher = dec_launcher cur l;
                  es_endpoint = dec_endpoint cur e;
                  es_delay = float_of cur "e.delay" delay;
                  es_weight = float_of cur "e.weight" weight;
                }
              | _ -> bad ~file:cur.file "CKPT-005" "malformed edge entry")
        in
        let bound = if nbound = 0 then [||] else array_field cur "bound" nbound float_of in
        let expanded =
          if nexpanded = 0 then [||]
          else
            let s = field cur "expanded" in
            check_count cur "expanded" ~expected:nexpanded (String.length s);
            Array.init nexpanded (fun i -> s.[i] = '1')
        in
        Some
          ( slot,
            {
              Extract.sn_engine = engine_of_name cur name;
              sn_edges = edges;
              sn_edges_extracted = int_of cur "engine.extracted" extracted;
              sn_cone_nodes = int_of cur "engine.cones" cones;
              sn_rounds = int_of cur "engine.rounds" rounds;
              sn_pending_first = int_of cur "engine.pending" pending;
              sn_bound = bound;
              sn_expanded = expanded;
            } )
    | _ -> bad ~file:cur.file "CKPT-005" "malformed engine header"
  in
  let engines = List.filter_map Fun.id (List.init nengines (fun _ -> engine ())) in
  (match next_line cur with
  | "end" -> ()
  | l -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "expected end marker, got '%s'" l));
  engines

(* The base's sections: the design text, the movement anchors, and the
   state that waits for the design [load] parses from that text once
   the hash has checked out. The [design] line repeats the text's
   design name. *)
let parse_body cur =
  let lv_algo = field cur "algo" in
  ignore (field cur "design");
  let lv_settings = parse_settings cur in
  let head = parse_run_head cur in
  let nanchors = int_field cur "anchors" in
  let ax = array_field cur "ax" nanchors float_of in
  let ay = array_field cur "ay" nanchors float_of in
  let progress, lv_rung = parse_run_tail cur head in
  let ntrace = int_field cur "trace" in
  let trace = List.init ntrace (fun _ -> parse_trace_point cur) in
  let best = match field cur "best" with "-" -> None | label -> Some (parse_best cur label) in
  let n = int_field cur "design-text" in
  let text = take_blob cur n in
  let lv_engines = parse_engines cur in
  let lv_progress = { progress with trace_rev = List.rev trace; best } in
  ( text,
    ax,
    ay,
    fun lv_design -> { lv_algo; lv_settings; lv_progress; lv_rung; lv_design; lv_engines } )

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

(* One journal record onto [lv]: its anchors go straight onto the
   design, and its design edits are prepended to [edits] (newest first)
   for one {!Io.apply_lines} after the last record. *)
let parse_record ~last cur lv edits =
  let d = lv.lv_design and old = lv.lv_progress in
  let lv_settings = parse_settings cur in
  let head = parse_run_head cur in
  let progress, lv_rung = parse_run_tail cur head in
  let kept, nfresh =
    match split_ws (field cur "trace") with
    | [ k; n ] -> (int_of cur "trace.kept" k, int_of cur "trace.new" n)
    | _ -> bad ~file:cur.file "CKPT-005" "malformed trace line"
  in
  let have = List.length old.trace_rev in
  if kept < 0 || kept > have then
    bad ~file:cur.file "CKPT-005"
      (Printf.sprintf "record keeps %d trace points of %d" kept have);
  let fresh = List.init nfresh (fun _ -> parse_trace_point cur) in
  let trace_rev = List.rev_append fresh (drop (have - kept) old.trace_rev) in
  let nanchors = int_field cur "anchors" in
  for _ = 1 to nanchors do
    match split_ws (field cur "a") with
    | [ c; x; y ] ->
      let c = int_of cur "a.cell" c in
      if c < 0 || c >= Design.num_cells d then
        bad ~file:cur.file "CKPT-005" (Printf.sprintf "anchor of cell %d out of range" c);
      Design.set_cell_orig_pos d c (Point.make (float_of cur "a.x" x) (float_of cur "a.y" y))
    | _ -> bad ~file:cur.file "CKPT-005" "malformed anchor entry"
  done;
  let best =
    match field cur "best" with
    | "=" -> old.best
    | "-" -> None
    | label -> Some (parse_best ~anchors:d cur label)
  in
  let nedits = int_field cur "edits" in
  for _ = 1 to nedits do
    let l = next_line cur in
    let malformed () = bad ~file:cur.file "CKPT-005" ("malformed edit: " ^ l) in
    match String.index_opt l ' ' with
    | None -> malformed ()
    | Some i -> (
      match String.index_from_opt l (i + 1) ' ' with
      | None -> malformed ()
      | Some j ->
        let id = int_of cur "edit id" (String.sub l (i + 1) (j - i - 1)) in
        let text = String.sub l (j + 1) (String.length l - j - 1) in
        let opt = if text = "-" then None else Some text in
        edits :=
          (match String.sub l 0 i with
          | "c" -> Io.Cell_line (id, text)
          | "n" -> Io.Net_line (id, text)
          | "l" -> Io.Latency_line (id, opt)
          | "b" -> Io.Bounds_line (id, opt)
          | _ -> malformed ())
          :: !edits)
  done;
  let lv_engines = parse_engines ~convert:last cur in
  if cur.pos <> String.length cur.buf then
    bad ~file:cur.file "CKPT-005" "trailing bytes after a journal record's end marker";
  { lv with lv_settings; lv_progress = { progress with trace_rev; best }; lv_rung; lv_engines }

let read_file file =
  match open_in_bin file with
  | exception Sys_error msg -> bad ~file "CKPT-001" ("cannot read checkpoint: " ^ msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

(* the base's header; returns its stored body hash *)
let parse_base_header cur =
  (match split_ws (next_line cur) with
  | [ m; v ] when m = magic ->
    let v = int_of cur "version" v in
    if v <> version then
      bad ~file:cur.file "CKPT-002"
        (Printf.sprintf "unsupported checkpoint version %d (this build reads %d)" v version)
  | _ -> bad ~file:cur.file "CKPT-002" "not a css-checkpoint file (bad magic)");
  hex64 cur "hash line" (field cur "hash")

let load_base ~dir =
  let file = path ~dir in
  let raw = read_file file in
  let cur = { buf = raw; file; pos = 0 } in
  let stored_hash = parse_base_header cur in
  let body = String.sub cur.buf cur.pos (String.length cur.buf - cur.pos) in
  (* structure first: a torn tail reports as truncation (CKPT-004),
     not as the hash mismatch it would also cause *)
  let base = parse_body cur in
  if cur.pos <> String.length cur.buf then bad ~file "CKPT-005" "trailing bytes after end marker";
  let actual = Fnv.of_string body in
  if actual <> stored_hash then
    bad ~file "CKPT-003"
      (Printf.sprintf "content hash mismatch (stored %016Lx, computed %016Lx)" stored_hash actual);
  (base, stored_hash)

(* The frame at [pos] of a journal [raw] of [len] bytes. *)
let frame raw len pos =
  match String.index_from_opt raw pos '\n' with
  | None -> `Torn "short frame"
  | Some nl -> (
    match split_ws (String.sub raw pos (nl - pos)) with
    | [ "record"; n; h ] -> (
      match (int_of_string_opt n, Int64.of_string_opt ("0x" ^ h)) with
      | Some n, Some h when n >= 0 ->
        let next = nl + 1 + n in
        if next > len then `Torn "short body"
        else
          let body = String.sub raw (nl + 1) n in
          if Fnv.of_string body = h then `Record (body, next)
          else if next = len then `Torn "hash mismatch"
          else `Corrupt "fails its hash"
      | _ -> `Corrupt "has a malformed frame")
    | _ -> `Corrupt "has a malformed frame")

(* The records of [dir]'s journal that continue the base hashed
   [base_hash], and the byte length they end at. A missing journal, a
   torn header or one naming another base yields none (end 0: a writer
   must start a new base); a short or hash-failing final record is a
   torn write and is dropped; anything wrong before the tail is
   CKPT-003. *)
let scan_journal ~dir ~base_hash =
  let file = journal_path ~dir in
  let raw = if Sys.file_exists file then read_file file else "" in
  let len = String.length raw in
  let ignored why =
    if len > 0 then Log.warn (fun m -> m "%s: %s; the journal is ignored" file why);
    ([], 0)
  in
  let rec records acc pos =
    if pos = len then (List.rev acc, pos)
    else
      match frame raw len pos with
      | `Record (body, next) -> records (body :: acc) next
      | `Torn what ->
        Log.warn (fun m -> m "%s: dropped a torn last record (%s)" file what);
        (List.rev acc, pos)
      | `Corrupt what ->
        bad ~file "CKPT-003" (Printf.sprintf "journal record at byte %d %s" pos what)
  in
  if not (String.contains raw '\n') then ignored "torn journal header"
  else
    let cur = { buf = raw; file; pos = 0 } in
    match split_ws (next_line cur) with
    | [ m; v; h ] when m = journal_magic ->
      if int_of cur "journal version" v <> journal_version then
        bad ~file "CKPT-002" (Printf.sprintf "unsupported journal version %s" v);
      if hex64 cur "journal base hash" h <> base_hash then
        ignored "it continues another base (a crash cut its replacement short)"
      else records [] cur.pos
    | _ -> bad ~file "CKPT-002" "not a css-journal file (bad magic)"

(* The base's design text is parsed once; its anchors and the journal's
   records are then replayed onto that design. *)
let load ~library ~dir =
  try
    let (text, ax, ay, live_of), base_hash = load_base ~dir in
    let bodies, _ = scan_journal ~dir ~base_hash in
    match Io.of_string ~source:(path ~dir) ~library text with
    | Error diags ->
      let msg = "checkpoint design does not parse against this cell library" in
      Error (Diag.error ~code:"CKPT-006" msg :: diags)
    | Ok (design, _) ->
      let ncells = Design.num_cells design in
      if Array.length ax <> ncells then
        bad "CKPT-006"
          (Printf.sprintf "checkpoint carries %d movement anchors for a design of %d cells"
             (Array.length ax) ncells);
      Array.iteri (fun c x -> Design.set_cell_orig_pos design c (Point.make x ay.(c))) ax;
      let file = journal_path ~dir in
      let edits = ref [] and n = List.length bodies in
      let lv =
        List.fold_left
          (fun (i, lv) body ->
            (i + 1, parse_record ~last:(i = n) { buf = body; file; pos = 0 } lv edits))
          (1, live_of design) bodies
        |> snd
      in
      (match Io.apply_lines design (List.rev !edits) with
      | Ok () -> ()
      | Error d -> bad ~file "CKPT-005" ("journal edits do not fit the base: " ^ Diag.to_string d));
      Ok lv
  with Bad d -> Error [ d ]

(* A journal continuing [dir]'s files, whose replay [lv] was rebuilt
   from: the torn tail [load] dropped is cut off so the next record
   lands right after the last good one. *)
let resume_journal ~dir lv =
  let j = journal ~dir in
  (try
     let file = path ~dir in
     let header =
       In_channel.with_open_bin file (fun ic ->
           let l1 = In_channel.input_line ic in
           let l2 = In_channel.input_line ic in
           String.concat "\n" (List.filter_map Fun.id [ l1; l2 ]) ^ "\n")
     in
     let base_hash = parse_base_header { buf = header; file; pos = 0 } in
     match scan_journal ~dir ~base_hash with
     | _, 0 -> ()
     | _, valid ->
       let jfile = journal_path ~dir in
       if (Unix.stat jfile).Unix.st_size > valid then Unix.truncate jfile valid;
       j.files <- Some (files_of lv ~base_bytes:(Unix.stat file).Unix.st_size ~journal_bytes:valid)
   with Bad _ | Sys_error _ | Unix.Unix_error _ -> ());
  j
