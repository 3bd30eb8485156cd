(* Unit tests for the observability subsystem: counter monotonicity,
   nested span timing, JSON round-trip, the text sink, the timeline's
   lossless Chrome export (also with the GC alarm recording from
   finalisers), a session's spans reaching it through its [obs], and
   the null sink's allocation-free hot path. *)

module Obs = Css_util.Obs
module Json = Css_util.Obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- counters --- *)

let test_counter_basics () =
  let t = Obs.create () in
  let c = Obs.counter t "edges" in
  checki "fresh counter is 0" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr c;
  Obs.add c 40;
  checki "2 incrs + add 40" 42 (Obs.value c);
  let c' = Obs.counter t "edges" in
  Obs.incr c';
  checki "same name is same cell" 43 (Obs.value c);
  checkb "registered" true (Obs.counters t = [ ("edges", 43) ])

let test_counter_monotone () =
  let t = Obs.create () in
  let c = Obs.counter t "m" in
  let prev = ref (-1) in
  for i = 0 to 999 do
    if i mod 3 = 0 then Obs.incr c else Obs.add c (i mod 7);
    let v = Obs.value c in
    checkb "non-decreasing" true (v >= !prev);
    prev := v
  done;
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Obs.add: counters are monotone (negative delta)") (fun () ->
      Obs.add c (-1))

let test_counters_sorted () =
  let t = Obs.create () in
  List.iter (fun n -> ignore (Obs.counter t n)) [ "zeta"; "alpha"; "mid" ];
  checkb "sorted by name" true
    (List.map fst (Obs.counters t) = [ "alpha"; "mid"; "zeta" ])

(* --- spans --- *)

let spin_for seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity (sin 1.0))
  done

let test_span_nesting () =
  let t = Obs.create () in
  Obs.span t "outer" (fun () ->
      spin_for 0.01;
      Obs.span t "inner" (fun () -> spin_for 0.01);
      Obs.span t "inner" (fun () -> spin_for 0.01));
  let find path =
    match List.find_opt (fun (p, _, _) -> p = path) (Obs.spans t) with
    | Some (_, total, count) -> (total, count)
    | None -> Alcotest.failf "span %s not recorded" path
  in
  let outer_t, outer_n = find "outer" in
  let inner_t, inner_n = find "outer/inner" in
  checki "outer entered once" 1 outer_n;
  checki "inner entered twice" 2 inner_n;
  checkb "outer >= sum of inners" true (outer_t >= inner_t);
  checkb "inner measured something" true (inner_t >= 0.015);
  checkb "outer includes its own work" true (outer_t >= 0.025)

let test_span_imperative_and_errors () =
  let t = Obs.create () in
  Obs.open_span t "a";
  Obs.open_span t "b";
  (try
     Obs.close_span t "a";
     Alcotest.fail "LIFO violation not detected"
   with Invalid_argument _ -> ());
  Obs.close_span t "b";
  Obs.close_span t "a";
  (try
     Obs.close_span t "a";
     Alcotest.fail "empty stack not detected"
   with Invalid_argument _ -> ());
  checkb "both paths recorded" true
    (List.map (fun (p, _, _) -> p) (Obs.spans t) = [ "a"; "a/b" ])

let test_span_survives_raise () =
  let t = Obs.create () in
  (try Obs.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  checkb "span closed despite raise" true
    (match Obs.spans t with [ ("boom", _, 1) ] -> true | _ -> false);
  Obs.span t "after" (fun () -> ());
  checkb "stack intact afterwards" true
    (List.exists (fun (p, _, _) -> p = "after") (Obs.spans t))

(* --- snapshots --- *)

let test_snapshots () =
  let t = Obs.create () in
  Obs.span t "css" (fun () ->
      Obs.snapshot t ~label:"iter" [ ("wns", Json.Float (-12.5)); ("edges", Json.Int 7) ];
      Obs.snapshot t ~label:"iter" [ ("wns", Json.Float (-3.0)); ("edges", Json.Int 9) ]);
  match Obs.snapshots t with
  | [ (l1, sp1, f1); (l2, _, _) ] ->
    checks "label" "iter" l1;
    checks "span path attached" "css" sp1;
    checks "label 2" "iter" l2;
    checkb "fields kept in order" true (List.map fst f1 = [ "wns"; "edges" ])
  | other -> Alcotest.failf "expected 2 snapshots, got %d" (List.length other)

(* --- JSON --- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.abs x)
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2) xs ys
  | a, b -> a = b

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("design", Json.String "sb18");
        ("iterations", Json.Int 12);
        ("wns_late", Json.Float (-153.25));
        ("tiny", Json.Float 1.5e-9);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("weird key \"q\"\n", Json.String "line1\nline2\ttab");
        ( "per_iter",
          Json.List
            [
              Json.Obj [ ("iter", Json.Int 1); ("edges", Json.Int 100) ];
              Json.Obj [ ("iter", Json.Int 2); ("edges", Json.Int 140) ];
              Json.List [];
              Json.Obj [];
            ] );
      ]
  in
  let s = Json.to_string v in
  checkb "round-trip" true (json_equal v (Json.of_string s));
  (* floats never degrade to ints on the way back *)
  checkb "float stays float" true
    (match Json.of_string (Json.to_string (Json.Float 3.0)) with
    | Json.Float 3.0 -> true
    | _ -> false);
  checkb "member" true (Json.member "iterations" v = Some (Json.Int 12));
  checkb "to_float of int" true (Json.to_float (Json.Int 4) = 4.0)

let test_json_parser_inputs () =
  checkb "whitespace tolerated" true
    (json_equal
       (Json.of_string " { \"a\" : [ 1 , 2.5 , \"x\" ] , \"b\" : null } ")
       (Json.Obj
          [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]); ("b", Json.Null) ]));
  checkb "negative numbers" true
    (json_equal (Json.of_string "[-3,-2.5e2]") (Json.List [ Json.Int (-3); Json.Float (-250.0) ]));
  checkb "unicode escape" true (Json.of_string "\"\\u0041\"" = Json.String "A");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "parser accepted %S" bad)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\":}" ]

let test_obs_context_to_json () =
  let t = Obs.create () in
  let c = Obs.counter t "sched.iterations" in
  Obs.incr c;
  Obs.span t "flow" (fun () -> Obs.snapshot t ~label:"it" [ ("tns", Json.Float (-1.0)) ]);
  let j = Obs.to_json t in
  let reparsed = Json.of_string (Json.to_string j) in
  checkb "context json round-trips" true (json_equal j reparsed);
  (match Json.member "counters" j with
  | Some (Json.Obj [ ("sched.iterations", Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "counters object wrong");
  match Json.member "snapshots" j with
  | Some (Json.List [ snap ]) ->
    checkb "snapshot label" true (Json.member "label" snap = Some (Json.String "it"))
  | _ -> Alcotest.fail "snapshots wrong"

let test_write_json_file () =
  let t = Obs.create () in
  Obs.add (Obs.counter t "extract.edges") 17;
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_json t path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      checkb "file parses" true
        (match Json.member "counters" (Json.of_string s) with
        | Some (Json.Obj [ ("extract.edges", Json.Int 17) ]) -> true
        | _ -> false))

(* a machine-generated deep and wide value, the shape a long paper-scale
   run's stats dump actually takes (hundreds of snapshots with nested
   per-iteration payloads) *)
let test_json_roundtrip_large () =
  let leaf i =
    Json.Obj
      [
        ("iter", Json.Int i);
        ("wns", Json.Float (-0.001 *. float_of_int i));
        ("label", Json.String (Printf.sprintf "snap-%d\n\"quoted\"" i));
        ("flags", Json.List [ Json.Bool (i mod 2 = 0); Json.Null ]);
      ]
  in
  let rec nest depth inner =
    if depth = 0 then inner
    else nest (depth - 1) (Json.Obj [ ("level", Json.Int depth); ("child", inner) ])
  in
  let v =
    Json.Obj
      [
        ("snapshots", Json.List (List.init 500 leaf));
        ("deep", nest 64 (Json.String "bottom"));
        ("empty_things", Json.List [ Json.Obj []; Json.List []; Json.String "" ]);
      ]
  in
  let s = Json.to_string v in
  checkb "large value round-trips" true (json_equal v (Json.of_string s));
  (* and a second print/parse cycle is a fixpoint *)
  checks "printer is stable" s (Json.to_string (Json.of_string s))

(* --- histogram registry --- *)

let test_histogram_registry () =
  let t = Obs.create () in
  let h = Obs.histogram t "sched.solve_s" in
  Css_util.Histo.observe h 0.25;
  Css_util.Histo.observe h 0.5;
  let h' = Obs.histogram t "sched.solve_s" in
  checkb "same name is same histogram" true (Css_util.Histo.count h' = 2);
  (* a registered-but-empty histogram stays out of the listing (and so
     out of the JSON dump): only observed distributions are reported *)
  ignore (Obs.histogram t "a.empty");
  let hb = Obs.histogram t "a.first" in
  Css_util.Histo.observe hb 1.0;
  checkb "listed sorted, empty ones omitted" true
    (List.map fst (Obs.histograms t) = [ "a.first"; "sched.solve_s" ]);
  (* the null sink routes to the shared dummy and registers nothing *)
  let d = Obs.histogram Obs.null "anything" in
  Css_util.Histo.observe d 1.0;
  checkb "null registers no histograms" true (Obs.histograms Obs.null = []);
  (* histograms appear in the JSON dump under their names *)
  match Json.member "histograms" (Obs.to_json t) with
  | Some (Json.Obj kvs) ->
    checkb "histograms in json" true (List.mem_assoc "sched.solve_s" kvs)
  | _ -> Alcotest.fail "no histograms object in to_json"

(* --- monotonic clock and the wall-clock anchor --- *)

let test_clock_key () =
  let t = Obs.create () in
  checkb "epoch is a plausible wall-clock time" true (Obs.epoch t > 1.5e9);
  match Json.member "clock" (Obs.to_json t) with
  | Some clock ->
    checkb "source" true (Json.member "source" clock = Some (Json.String "monotonic"));
    checkb "epoch recorded" true
      (match Json.member "epoch_s" clock with
      | Some v -> Float.abs (Json.to_float v -. Obs.epoch t) < 1e-6
      | None -> false)
  | None -> Alcotest.fail "no clock object in to_json"

(* --- the stats dump and the trace share one epoch --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_tmp ext f =
  let path = Filename.temp_file "css_obs" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_one_epoch () =
  let t = Obs.create () in
  Obs.span t "phase" (fun () -> ());
  let epoch_of path key j =
    match Option.bind (Json.member key j) (Json.member "epoch_s") with
    | Some v -> Json.to_float v
    | None -> Alcotest.failf "%s has no %s.epoch_s" path key
  in
  with_tmp ".json" @@ fun stats ->
  with_tmp ".json" @@ fun trace ->
  Obs.write_json t stats;
  Obs.write_chrome_json t trace;
  let dumped = epoch_of stats "clock" (Json.of_string (read_file stats)) in
  let traced = epoch_of trace "otherData" (Json.of_string (read_file trace)) in
  checkb "clock.epoch_s = otherData.epoch_s" true (dumped = traced);
  checkb "the context's epoch" true (Float.abs (dumped -. Obs.epoch t) < 0.01)

(* --- the text sink --- *)

let test_text_sink () =
  with_tmp ".log" @@ fun path ->
  let oc = open_out path in
  let t = Obs.create_trace oc in
  Obs.span t "outer" (fun () ->
      Obs.span t "inner" (fun () -> ());
      Obs.snapshot t ~label:"sched.iter" [ ("wns", Json.Float (-1.5)); ("edges", Json.Int 7) ]);
  close_out oc;
  let lines = String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "") in
  let words l = String.split_on_char ' ' l |> List.filter (( <> ) "") in
  let spans = List.filter (String.starts_with ~prefix:"[obs] span") lines in
  let snaps = List.filter (String.starts_with ~prefix:"[obs] snap") lines in
  checki "every line is a span or a snapshot" (List.length lines)
    (List.length spans + List.length snaps);
  (* one line per closed span, innermost first, naming its path *)
  checkb "span lines" true
    (List.map (fun l -> List.nth (words l) 2) spans = [ "outer/inner"; "outer" ]);
  List.iter
    (fun l ->
      match List.rev (words l) with
      | "ms" :: ms :: _ -> checkb "elapsed ms" true (float_of_string ms >= 0.0)
      | _ -> Alcotest.failf "span line without ms: %s" l)
    spans;
  checkb "snapshot line" true
    (List.map words snaps = [ [ "[obs]"; "snap"; "sched.iter#0"; "wns=-1.50"; "edges=7" ] ]);
  (* the text sink collects as well *)
  checki "spans collected" 2 (List.length (Obs.spans t));
  checki "timeline recorded" 5 (Obs.recorded t)

(* --- the timeline --- *)

(* The log starts at 4096 events (obs.ml); every sweep below records
   well past that, so each crosses at least one growth. *)
let initial_events = 4096

(* What the exporter must reproduce: kind, name and argument of every
   recorded event, in order. *)
type ev = { ph : string; name : string; arg : float option }

let record_mix t ~iters =
  let lane = Obs.lane t "lane" in
  for i = 1 to iters do
    Obs.open_span t "outer";
    Obs.open_span t "inner";
    Obs.sample lane (float_of_int i);
    Obs.close_span t "inner";
    Obs.snapshot t ~label:"tick" [];
    Obs.close_span t "outer"
  done

let expected_mix ~iters =
  List.concat_map
    (fun i ->
      [
        { ph = "B"; name = "outer"; arg = None };
        { ph = "B"; name = "inner"; arg = None };
        { ph = "C"; name = "lane"; arg = Some (float_of_int i) };
        { ph = "E"; name = "inner"; arg = None };
        { ph = "i"; name = "tick"; arg = Some 0.0 };
        { ph = "E"; name = "outer"; arg = None };
      ])
    (List.init iters (fun i -> i + 1))

let trace_events t =
  with_tmp ".json" @@ fun out ->
  Obs.write_chrome_json t out;
  let j = Json.of_string (read_file out) in
  let all =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  (* the process is labelled after the running executable *)
  let process_label =
    List.find_map
      (fun e ->
        if Json.member "name" e = Some (Json.String "process_name") then
          Option.bind (Json.member "args" e) (Json.member "name")
        else None)
      all
  in
  checkb "process_name names the test binary" true
    (process_label = Some (Json.String "test_obs"));
  let events = List.filter (fun e -> Json.member "ph" e <> Some (Json.String "M")) all in
  (match Json.member "otherData" j with
  | Some od ->
    checkb "recorded_events = exported events" true
      (Json.member "recorded_events" od = Some (Json.Int (List.length events)))
  | None -> Alcotest.fail "no otherData");
  events

let exported t =
  let events = trace_events t in
  let ts e = match Json.member "ts" e with Some ts -> Json.to_float ts | None -> nan in
  ignore
    (List.fold_left
       (fun last e ->
         checkb "monotone timestamps" true (ts e >= last);
         ts e)
       neg_infinity events);
  let str k e = match Json.member k e with Some (Json.String s) -> s | _ -> "?" in
  let arg e =
    let v k = Option.bind (Json.member "args" e) (Json.member k) |> Option.map Json.to_float in
    match str "ph" e with "i" -> v "v" | "C" -> v "value" | _ -> None
  in
  List.map (fun e -> { ph = str "ph" e; name = str "name" e; arg = arg e }) events

(* every E closes the innermost open B of the same name, none stays open *)
let check_nesting events =
  let open_spans =
    List.fold_left
      (fun stack e ->
        match (e.ph, stack) with
        | "B", _ -> e.name :: stack
        | "E", top :: rest when top = e.name -> rest
        | "E", _ -> Alcotest.fail ("unmatched end " ^ e.name)
        | _ -> stack)
      [] events
  in
  checki "spans left open" 0 (List.length open_spans)

let check_same expected events =
  checki "event count" (List.length expected) (List.length events);
  List.iteri
    (fun i (x, e) ->
      if x <> e then
        Alcotest.failf "event %d: expected %s %s, exported %s %s" i x.ph x.name e.ph e.name)
    (List.combine expected events)

(* Exports [t] and checks it against [expected], leaving out the GC
   alarm's events, which land wherever a major cycle ends; returns how
   many of those there were. *)
let check_export t expected =
  let events = exported t in
  checki "exported = recorded" (Obs.recorded t) (List.length events);
  let is_gc e = String.starts_with ~prefix:"gc." e.name in
  check_same expected (List.filter (fun e -> not (is_gc e)) events);
  check_nesting events;
  List.length (List.filter is_gc events)

let test_lossless_export () =
  let t = Obs.create () in
  let iters = initial_events in
  record_mix t ~iters;
  checkb "log grew" true (Obs.recorded t > 4 * initial_events);
  checki "no gc events" 0 (check_export t (expected_mix ~iters));
  (* the span totals are read back out of the grown log *)
  checkb "span visits" true
    (List.map (fun (p, _, n) -> (p, n)) (Obs.spans t)
    = [ ("outer", iters); ("outer/inner", iters) ])

let test_lossless_under_gc_alarm () =
  (* a finaliser can run inside a growth's column allocations. With a
     small space_overhead and a different amount of garbage before each
     context, major cycles end at shifting points, some of them inside
     a growth, so the alarm records while the log is being copied.
     Export only after all the recording: parsing allocates enough to
     move the cycles elsewhere *)
  let saved = Gc.get () in
  let contexts =
    Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
    Gc.set { saved with Gc.space_overhead = 5 };
    List.init 20 (fun k ->
        ignore (Sys.opaque_identity (Array.make (1 + (k * 997)) 0));
        let t = Obs.create () in
        Obs.install_gc_alarm t;
        record_mix t ~iters:(initial_events / 2);
        Obs.remove_gc_alarm t;
        t)
  in
  let expected = expected_mix ~iters:(initial_events / 2) in
  List.iter (fun t -> ignore (check_export t expected)) contexts;
  (* forced major collections between bursts: the alarm records between
     events, and the log grows past them *)
  let t = Obs.create () in
  Obs.install_gc_alarm t;
  let iters = initial_events / 8 in
  for _ = 1 to 6 do
    record_mix t ~iters;
    Gc.full_major ()
  done;
  Obs.remove_gc_alarm t;
  let expected = expected_mix ~iters in
  let alarms = check_export t (List.concat (List.init 6 (fun _ -> expected))) in
  checkb "gc alarm recorded" true (alarms > 0)

let test_spans_and_snapshots_on_timeline () =
  let t = Obs.create () in
  Obs.span t "phase" (fun () ->
      spin_for 0.002;
      Obs.snapshot t ~label:"sched.iter" [ ("wns", Json.Float (-1.0)) ]);
  (* span open+close and the snapshot instant: three events *)
  checki "recorded events" 3 (Obs.recorded t);
  let events = trace_events t in
  let ph e = match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?" in
  let name e = match Json.member "name" e with Some (Json.String n) -> n | _ -> "?" in
  checkb "B, instant, E" true
    (List.map (fun e -> (ph e, name e)) events
    = [ ("B", "phase"); ("i", "sched.iter"); ("E", "phase") ]);
  (* the stats dump's span total is the exported E - B, to the export's
     microsecond rounding *)
  let ts e = match Json.member "ts" e with Some v -> Json.to_float v | None -> nan in
  match (Obs.spans t, events) with
  | [ ("phase", total, 1) ], [ b; _; e ] ->
    checkb "total = E - B" true (Float.abs ((total *. 1e6) -. (ts e -. ts b)) < 0.01);
    checkb "total measured the spin" true (total >= 0.002)
  | _ -> Alcotest.fail "expected one phase span"

(* --- a session's one observability context --- *)

let test_session_traces_through_obs () =
  (* the session's phase spans and the budget governor reach the
     timeline only through the session's [obs] *)
  let module Session = Css_flow.Session in
  let module Budget = Css_util.Budget in
  let obs = Obs.create () in
  let config =
    {
      Session.default_config with
      obs;
      budget = { Budget.no_limits with Budget.wall_seconds = Some 3600.0 };
    }
  in
  let s =
    Session.open_ ~config ~algo:Session.Ours
      (Css_benchgen.Generator.generate Css_benchgen.Profile.tiny)
  in
  let r = Session.finish s in
  Session.close s;
  checkb "budget never tripped" true (r.Session.degradations = []);
  let events = trace_events obs in
  let named name ph =
    List.filter
      (fun e ->
        Json.member "name" e = Some (Json.String name) && Json.member "ph" e = Some (Json.String ph))
      events
  in
  List.iter
    (fun name ->
      let spans = named name "B" in
      checkb (name ^ " spans") true (spans <> []);
      List.iter
        (fun e -> checkb (name ^ " on the one lane") true (Json.member "tid" e = Some (Json.Int 0)))
        spans)
    [ "late-css"; "reconnect" ];
  checkb "budget.wall_s samples" true (named "budget.wall_s" "C" <> [])

(* --- null context on the timeline --- *)

let test_timeline_null_noops () =
  let t = Obs.null in
  let l = Obs.lane t "anything" in
  Obs.open_span t "anything";
  Obs.close_span t "anything";
  Obs.snapshot t ~label:"anything" [];
  Obs.sample l 1.0;
  Obs.install_gc_alarm t;
  Gc.full_major ();
  Obs.remove_gc_alarm t;
  checki "nothing recorded" 0 (Obs.recorded t);
  checkb "export refused" true
    (match Obs.write_chrome_json t "/nonexistent/x.json" with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- allocation-free sample path (calibration idiom from test_layout) --- *)

let float_box_words =
  let fv = Css_util.Fvec.make 16 0.5 in
  let acc = [| 0.0 |] in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 15 do
    acc.(0) <- acc.(0) +. Css_util.Fvec.get fv i
  done;
  (Gc.minor_words () -. before) /. 16.0

let alloc_sweep t =
  let l = Obs.lane t "hot" in
  let iters = 10_000 in
  for i = 1 to 64 do
    Obs.sample l (float_of_int i)
  done;
  let before = Gc.minor_words () in
  for i = 1 to iters do
    Obs.sample l (float_of_int i)
  done;
  let allocated = Gc.minor_words () -. before in
  (* one boxed float per iteration for the sample argument under dev
     -opaque; the record path itself must not allocate *)
  (allocated, (float_of_int iters *. 2.0 *. float_box_words) +. 256.0)

let test_sample_allocation_free () =
  (* enabled context; the sweep's 10,064 events grow the log twice. A
     grown column is too large for the minor heap, so growth is paid on
     the major heap, amortised over the events that filled the log *)
  let t = Obs.create () in
  let allocated, budget = alloc_sweep t in
  checkb "sweep crossed two growths" true (Obs.recorded t > 2 * initial_events);
  checkb
    (Printf.sprintf "enabled sweep allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true
    (allocated <= budget);
  (* null context: same sweep, same budget *)
  let allocated, budget = alloc_sweep Obs.null in
  checkb
    (Printf.sprintf "null sweep allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true
    (allocated <= budget)

(* --- atomic stats writes --- *)

let test_write_json_atomic () =
  let t = Obs.create () in
  Obs.add (Obs.counter t "n") 1;
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "obs_atomic_%d.json" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* overwriting an existing file must go through tmp+rename and
         leave no *.tmp.* residue next to the target *)
      Obs.write_json t path;
      Obs.add (Obs.counter t "n") 1;
      Obs.write_json t path;
      let residue =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length "obs_atomic_"
               && String.sub f 0 (String.length "obs_atomic_") = "obs_atomic_"
               && f <> Filename.basename path)
      in
      checkb "no tmp residue" true (residue = []);
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      checkb "final content wins" true
        (match Json.member "counters" (Json.of_string s) with
        | Some (Json.Obj [ ("n", Json.Int 2) ]) -> true
        | _ -> false))

(* --- null sink --- *)

let test_null_sink_noop () =
  checkb "null disabled" false (Obs.enabled Obs.null);
  let c = Obs.counter Obs.null "anything" in
  Obs.incr c;
  Obs.add c 5;
  checkb "null registers nothing" true (Obs.counters Obs.null = []);
  Obs.close_span Obs.null "never-opened";
  (* no raise: null ignores span bookkeeping entirely *)
  checki "null span runs the thunk" 7 (Obs.span Obs.null "s" (fun () -> 7));
  Obs.snapshot Obs.null ~label:"x" [ ("a", Json.Int 1) ];
  checkb "null collected no snapshots" true (Obs.snapshots Obs.null = [])

let test_null_sink_allocation_free () =
  let c = Obs.counter Obs.null "hot" in
  (* warm up so any one-time allocation is out of the measured window *)
  Obs.incr c;
  Obs.add c 1;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.incr c;
    Obs.add c 3
  done;
  let allocated = Gc.minor_words () -. before in
  (* the loop itself allocates nothing; leave slack for instrumentation
     noise (Gc.minor_words allocates a boxed float per call) *)
  checkb
    (Printf.sprintf "hot path allocation-free (%.0f minor words)" allocated)
    true (allocated < 256.0)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "monotone" `Quick test_counter_monotone;
          Alcotest.test_case "sorted listing" `Quick test_counters_sorted;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick test_span_nesting;
          Alcotest.test_case "imperative LIFO checks" `Quick test_span_imperative_and_errors;
          Alcotest.test_case "survives raise" `Quick test_span_survives_raise;
        ] );
      ( "snapshots", [ Alcotest.test_case "recorded in order" `Quick test_snapshots ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "round-trip large nested" `Quick test_json_roundtrip_large;
          Alcotest.test_case "parser inputs" `Quick test_json_parser_inputs;
          Alcotest.test_case "context to_json" `Quick test_obs_context_to_json;
          Alcotest.test_case "write_json file" `Quick test_write_json_file;
          Alcotest.test_case "write_json atomic" `Quick test_write_json_atomic;
        ] );
      ( "histograms", [ Alcotest.test_case "registry" `Quick test_histogram_registry ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic source and epoch" `Quick test_clock_key;
          Alcotest.test_case "stats and trace share the epoch" `Quick test_one_epoch;
        ] );
      ( "text sink", [ Alcotest.test_case "span and snapshot lines" `Quick test_text_sink ] );
      ( "tracer",
        [
          Alcotest.test_case "spans and snapshots on the timeline" `Quick
            test_spans_and_snapshots_on_timeline;
          Alcotest.test_case "lossless export" `Quick test_lossless_export;
          Alcotest.test_case "lossless under gc alarm" `Quick test_lossless_under_gc_alarm;
          Alcotest.test_case "session traces through obs" `Quick
            test_session_traces_through_obs;
          Alcotest.test_case "null no-ops" `Quick test_timeline_null_noops;
          Alcotest.test_case "hot path allocation-free" `Quick test_sample_allocation_free;
        ] );
      ( "null sink",
        [
          Alcotest.test_case "no-op semantics" `Quick test_null_sink_noop;
          Alcotest.test_case "allocation-free hot path" `Quick test_null_sink_allocation_free;
        ] );
    ]
