module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Graph = Css_sta.Graph
module Extract = Css_seqgraph.Extract
module Evaluator = Css_eval.Evaluator
module Point = Css_geometry.Point
module Diag = Css_util.Diag
module Fnv = Css_util.Fnv

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
  ck_positions : Point.t array;  (* per cell id *)
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

type state = {
  ps_algo : string;
  ps_design : string;
  ps_rounds : int;
  ps_progress : progress;
  ps_anchors : Point.t array;  (* max-displacement anchor per cell id *)
  ps_rung : int;
  ps_design_text : string;
  ps_engines : (string * Extract.snapshot) list;
}

let path ~dir = Filename.concat dir "checkpoint.ckpt"

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let magic = "css-checkpoint"

(* Version 3 dropped version 2's cone-cache section and renumbered the
   degradation rungs; older files are rejected, not migrated. *)
let version = 3
let fstr = Io.float_to_string

(* Array lines go straight into the buffer: one [Printf] and one
   [s ^ "\n"] copy per line would copy every ~100 kB array line twice.
   The key is always followed by a space, so an empty array reads
   ["key \n"], as the parser's [field] expects. *)
let add_array b key a add =
  Buffer.add_string b key;
  Buffer.add_char b ' ';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ' ';
      add i x)
    a;
  Buffer.add_char b '\n'

let add_floats b key a = add_array b key a (fun _ x -> Buffer.add_string b (fstr x))
let add_ints b key a = add_array b key a (fun _ i -> Buffer.add_string b (string_of_int i))

(* Cell coordinates share the design text's memo slots: a cell's anchor
   and best-checkpoint position usually equal its current position. *)
let add_xs memo b key points =
  add_array b key points (fun c (p : Point.t) -> Io.Memo.add_x memo b c p.Point.x)

let add_ys memo b key points =
  add_array b key points (fun c (p : Point.t) -> Io.Memo.add_y memo b c p.Point.y)

let enc_launcher = function
  | Graph.Launch_ff c -> Printf.sprintf "f%d" c
  | Graph.Launch_port p -> Printf.sprintf "p%d" p

let enc_endpoint = function
  | Graph.End_ff c -> Printf.sprintf "f%d" c
  | Graph.End_port p -> Printf.sprintf "p%d" p

let body_of_state ?(memo = Io.Memo.create ()) st =
  let p = st.ps_progress in
  let b = Buffer.create (String.length st.ps_design_text + 4096) in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "algo %s" st.ps_algo;
  line "design %s" st.ps_design;
  line "rounds %d" st.ps_rounds;
  line "phases-done %d" p.phases_done;
  line "hold-done %d" (if p.hold_done then 1 else 0);
  line "iterations %d" p.iterations;
  line "edges %d" p.edges;
  line "cones %d" p.cones;
  line "stall-best %s" (fstr p.stall_best);
  line "stall-count %d" p.stall_count;
  line "stop %s" (match p.stop with None -> "-" | Some s -> s);
  line "hpwl-before %s" (fstr p.hpwl_before);
  (* movement anchors: a reparsed design re-anchors at its parsed
     positions, so the original run's legality reference is carried
     explicitly *)
  line "anchors %d" (Array.length st.ps_anchors);
  add_xs memo b "ax" st.ps_anchors;
  add_ys memo b "ay" st.ps_anchors;
  line "css-seconds %s" (fstr p.css_seconds);
  line "opt-seconds %s" (fstr p.opt_seconds);
  line "rung %d" st.ps_rung;
  line "degraded %d" (List.length p.degradations_rev);
  List.iter (fun d -> line "d %s" d) (List.rev p.degradations_rev);
  line "trace %d" (List.length p.trace_rev);
  List.iter
    (fun t ->
      line "t %d %s %d %s %s %s %s" t.round t.phase t.iter (fstr t.wns_early) (fstr t.tns_early)
        (fstr t.wns_late) (fstr t.tns_late))
    (List.rev p.trace_rev);
  (match p.best with
  | None -> line "best -"
  | Some cp ->
    let r = cp.ck_report in
    line "best %s" cp.label;
    line "bn %d %d %d" (Array.length cp.ck_ffs) (Array.length cp.ck_positions)
      (List.length r.Evaluator.constraint_errors);
    add_ints b "bf" cp.ck_ffs;
    add_floats b "bl" cp.ck_latencies;
    add_ints b "bb" cp.ck_lcb_of;
    add_xs memo b "bx" cp.ck_positions;
    add_ys memo b "by" cp.ck_positions;
    add_array b "bm" cp.ck_masters (fun _ m -> Buffer.add_string b m);
    line "br %s %s %s %s %d %d %s"
      (fstr r.Evaluator.wns_early)
      (fstr r.Evaluator.tns_early)
      (fstr r.Evaluator.wns_late)
      (fstr r.Evaluator.tns_late)
      r.Evaluator.num_early_violations r.Evaluator.num_late_violations
      (fstr r.Evaluator.hpwl);
    List.iter (fun e -> line "be %s" e) r.Evaluator.constraint_errors);
  line "design-text %d" (String.length st.ps_design_text);
  Buffer.add_string b st.ps_design_text;
  Buffer.add_char b '\n';
  line "engines %d" (List.length st.ps_engines);
  List.iter
    (fun (slot, (sn : Extract.snapshot)) ->
      line "engine %s %s %d %d %d %d %d %d %d" slot
        (Extract.engine_name sn.Extract.sn_engine)
        sn.Extract.sn_edges_extracted sn.Extract.sn_cone_nodes sn.Extract.sn_rounds
        sn.Extract.sn_pending_first
        (List.length sn.Extract.sn_edges)
        (Array.length sn.Extract.sn_bound)
        (Array.length sn.Extract.sn_expanded);
      List.iter
        (fun (e : Extract.edge_snap) ->
          line "e %s %s %s %s" (enc_launcher e.Extract.es_launcher)
            (enc_endpoint e.Extract.es_endpoint) (fstr e.Extract.es_delay)
            (fstr e.Extract.es_weight))
        sn.Extract.sn_edges;
      if Array.length sn.Extract.sn_bound > 0 then add_floats b "bound" sn.Extract.sn_bound;
      if Array.length sn.Extract.sn_expanded > 0 then
        line "expanded %s"
          (String.init (Array.length sn.Extract.sn_expanded) (fun i ->
               if sn.Extract.sn_expanded.(i) then '1' else '0')))
    st.ps_engines;
  line "end";
  Buffer.contents b

(* The body hash is FNV-1a 64 ({!Css_util.Fnv}): plenty to reject the
   failure modes that matter here (truncation survived by the structure
   check, bit rot, concurrent partial overwrite) — this is an integrity
   check, not an authenticity one. *)
let save ?memo ~dir st =
  let body = body_of_state ?memo st in
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s %d\nhash %016Lx\n" magic version (Fnv.of_string body);
     output_string oc body;
     flush oc;
     (* flush the data to the device before the rename publishes it: a
        crash must leave either the old checkpoint or the complete new
        one, never a named-but-empty file *)
     (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp final;
  Log.debug (fun m ->
      m "checkpoint saved: %s (%d phases done)" final st.ps_progress.phases_done)

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

let parse_body cur =
  let ps_algo = field cur "algo" in
  let ps_design = field cur "design" in
  let ps_rounds = int_field cur "rounds" in
  let phases_done = int_field cur "phases-done" in
  let hold_done = int_field cur "hold-done" <> 0 in
  let iterations = int_field cur "iterations" in
  let edges = int_field cur "edges" in
  let cones = int_field cur "cones" in
  let stall_best = float_field cur "stall-best" in
  let stall_count = int_field cur "stall-count" in
  let stop = match field cur "stop" with "-" -> None | s -> Some s in
  let hpwl_before = float_field cur "hpwl-before" in
  let nanchors = int_field cur "anchors" in
  let ax = array_field cur "ax" nanchors float_of in
  let ay = array_field cur "ay" nanchors float_of in
  let css_seconds = float_field cur "css-seconds" in
  let opt_seconds = float_field cur "opt-seconds" in
  let ps_rung = int_field cur "rung" in
  let ndeg = int_field cur "degraded" in
  let degradations = List.init ndeg (fun _ -> field cur "d") in
  let ntrace = int_field cur "trace" in
  let trace =
    List.init ntrace (fun _ ->
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
        | _ -> bad ~file:cur.file "CKPT-005" "malformed trace entry")
  in
  let best =
    match field cur "best" with
    | "-" -> None
    | label ->
      let nffs, ncells, nerrs =
        match split_ws (field cur "bn") with
        | [ a; b'; c ] -> (int_of cur "bn.ffs" a, int_of cur "bn.cells" b', int_of cur "bn.errs" c)
        | _ -> bad ~file:cur.file "CKPT-005" "malformed bn line"
      in
      let ck_ffs = array_field cur "bf" nffs int_of in
      let ck_latencies = array_field cur "bl" nffs float_of in
      let ck_lcb_of = array_field cur "bb" nffs int_of in
      let bx = array_field cur "bx" ncells float_of in
      let by = array_field cur "by" ncells float_of in
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
      Some
        {
          label;
          ck_ffs;
          ck_latencies;
          ck_lcb_of;
          ck_positions = Array.map2 Point.make bx by;
          ck_masters;
          ck_report = { report with Evaluator.constraint_errors = errs };
        }
  in
  let n = int_field cur "design-text" in
  let ps_design_text = take_blob cur n in
  let nengines = int_field cur "engines" in
  let ps_engines =
    List.init nengines (fun _ ->
        match split_ws (field cur "engine") with
        | [ slot; name; extracted; cones; rounds; pending; nedges; nbound; nexpanded ] ->
          let nedges = int_of cur "engine.nedges" nedges in
          let nbound = int_of cur "engine.nbound" nbound in
          let nexpanded = int_of cur "engine.nexpanded" nexpanded in
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
        | _ -> bad ~file:cur.file "CKPT-005" "malformed engine header")
  in
  (match next_line cur with
  | "end" -> ()
  | l -> bad ~file:cur.file "CKPT-005" (Printf.sprintf "expected end marker, got '%s'" l));
  {
    ps_algo;
    ps_design;
    ps_rounds;
    ps_progress =
      {
        phases_done;
        hold_done;
        iterations;
        edges;
        cones;
        stall_best;
        stall_count;
        stop;
        hpwl_before;
        css_seconds;
        opt_seconds;
        degradations_rev = List.rev degradations;
        trace_rev = List.rev trace;
        best;
      };
    ps_anchors = Array.map2 Point.make ax ay;
    ps_rung;
    ps_design_text;
    ps_engines;
  }

let read_file file =
  match open_in_bin file with
  | exception Sys_error msg -> bad ~file "CKPT-001" ("cannot read checkpoint: " ^ msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let load ~dir =
  let file = path ~dir in
  try
    let raw = read_file file in
    let cur = { buf = raw; file; pos = 0 } in
    (match split_ws (next_line cur) with
    | [ m; v ] when m = magic ->
      let v = int_of cur "version" v in
      if v <> version then
        bad ~file "CKPT-002"
          (Printf.sprintf "unsupported checkpoint version %d (this build reads %d)" v version)
    | _ -> bad ~file "CKPT-002" "not a css-checkpoint file (bad magic)");
    let stored_hash = hex64 cur "hash line" (field cur "hash") in
    let body = String.sub cur.buf cur.pos (String.length cur.buf - cur.pos) in
    (* structure first: a torn tail reports as truncation (CKPT-004),
       not as the hash mismatch it would also cause *)
    let st = parse_body cur in
    if cur.pos <> String.length cur.buf then
      bad ~file "CKPT-005" "trailing bytes after end marker";
    let actual = Fnv.of_string body in
    if actual <> stored_hash then
      bad ~file "CKPT-003"
        (Printf.sprintf "content hash mismatch (stored %016Lx, computed %016Lx)" stored_hash
           actual);
    Ok st
  with Bad d -> Error [ d ]
