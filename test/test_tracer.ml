(* Streaming tracer tests: a lossless export across log growth (also
   with the GC alarm recording from finalisers), null no-ops, a
   session's spans reaching the tracer through its [obs], and the
   allocation-free hot path. *)

module Tracer = Css_util.Tracer
module Json = Css_util.Json

let checkb name expected got = Alcotest.(check bool) name expected got
let checki name expected got = Alcotest.(check int) name expected got

let with_tmp ext f =
  let path = Filename.temp_file "css_tracer" ext in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- lossless log --- *)

(* The log starts at 4096 events (tracer.mli); every sweep below
   records well past that, so each crosses at least one growth. *)
let initial_events = 4096

(* What the exporter must reproduce: kind, name and argument of every
   recorded event, in order. *)
type ev = { ph : string; name : string; arg : float option }

(* [record_mix] allocates nothing but the boxed sample arguments, so
   the major GC's work (and the GC alarm) falls on the log's growth *)
let record_mix t ~iters =
  let outer = Tracer.intern t "outer"
  and inner = Tracer.intern t "inner"
  and lane = Tracer.intern t "lane"
  and tick = Tracer.intern t "tick" in
  for i = 1 to iters do
    let v = float_of_int i in
    Tracer.span_begin t outer;
    Tracer.span_begin t inner;
    Tracer.sample t lane v;
    Tracer.span_end t inner;
    Tracer.instant t ~arg:v tick;
    Tracer.span_end t outer
  done

let expected_mix ~iters =
  List.concat_map
    (fun i ->
      let v = Some (float_of_int i) in
      [
        { ph = "B"; name = "outer"; arg = None };
        { ph = "B"; name = "inner"; arg = None };
        { ph = "C"; name = "lane"; arg = v };
        { ph = "E"; name = "inner"; arg = None };
        { ph = "i"; name = "tick"; arg = v };
        { ph = "E"; name = "outer"; arg = None };
      ])
    (List.init iters (fun i -> i + 1))

let exported t =
  with_tmp ".json" @@ fun out ->
  Tracer.write_chrome_json t out;
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
    (process_label = Some (Json.String "test_tracer"));
  let events = List.filter (fun e -> Json.member "ph" e <> Some (Json.String "M")) all in
  (match Json.member "otherData" j with
  | Some od ->
    checkb "recorded_events = exported events" true
      (Json.member "recorded_events" od = Some (Json.Int (List.length events)))
  | None -> Alcotest.fail "no otherData");
  ignore
    (List.fold_left
       (fun last e ->
         let ts = match Json.member "ts" e with Some ts -> Json.to_float ts | None -> nan in
         checkb "monotone timestamps" true (ts >= last);
         ts)
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
  checki "exported = recorded" (Tracer.recorded t) (List.length events);
  let is_gc e = String.starts_with ~prefix:"gc." e.name in
  check_same expected (List.filter (fun e -> not (is_gc e)) events);
  check_nesting events;
  List.length (List.filter is_gc events)

let test_lossless_export () =
  let t = Tracer.create () in
  let iters = 2 * initial_events in
  record_mix t ~iters;
  checkb "log grew" true (Tracer.recorded t > 4 * initial_events);
  checki "no gc events" 0 (check_export t (expected_mix ~iters));
  Tracer.close t

let test_lossless_under_gc_alarm () =
  (* a finaliser can run inside a growth's column allocations. With a
     small space_overhead, nothing else allocating and a different
     amount of garbage before each tracer, major cycles end at shifting
     points, some of them inside a growth, so the alarm records while
     the log is being copied. Export only after all the recording:
     parsing allocates enough to move the cycles elsewhere *)
  let saved = Gc.get () in
  let tracers =
    Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
    Gc.set { saved with Gc.space_overhead = 5 };
    List.init 20 (fun k ->
        ignore (Sys.opaque_identity (Array.make (1 + (k * 997)) 0));
        let t = Tracer.create () in
        Tracer.install_gc_alarm t;
        record_mix t ~iters:(initial_events / 2);
        Tracer.close t;
        t)
  in
  let expected = expected_mix ~iters:(initial_events / 2) in
  List.iter (fun t -> ignore (check_export t expected)) tracers;
  (* forced major collections between bursts: the alarm records between
     events, and the log grows past them *)
  let t = Tracer.create () in
  Tracer.install_gc_alarm t;
  let iters = initial_events / 8 in
  for _ = 1 to 6 do
    record_mix t ~iters;
    Gc.full_major ()
  done;
  Tracer.close t;
  let expected = expected_mix ~iters in
  let alarms = check_export t (List.concat (List.init 6 (fun _ -> expected))) in
  checkb "gc alarm recorded" true (alarms > 0)

(* --- a session's one tracer handle --- *)

let test_session_traces_through_obs () =
  (* the session's phase spans and the budget governor reach the tracer
     only through the session's [obs]: attach it there and both show *)
  let module Session = Css_flow.Session in
  let module Budget = Css_util.Budget in
  let t = Tracer.create () in
  let obs = Css_util.Obs.create () in
  Css_util.Obs.attach_tracer obs t;
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
  with_tmp ".json" @@ fun out ->
  Tracer.write_chrome_json t out;
  let j = Json.of_string (read_file out) in
  let events = match Json.member "traceEvents" j with Some (Json.List l) -> l | _ -> [] in
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
  checkb "budget.wall_s samples" true (named "budget.wall_s" "C" <> []);
  Tracer.close t

(* --- null tracer --- *)

let test_null_noops () =
  let t = Tracer.null in
  checkb "disabled" false (Tracer.enabled t);
  let n = Tracer.intern t "anything" in
  Tracer.span_begin t n;
  Tracer.span_end t n;
  Tracer.instant t n;
  Tracer.sample t n 1.0;
  Tracer.close t;
  checki "nothing recorded" 0 (Tracer.recorded t);
  checkb "export refused" true
    (match Tracer.write_chrome_json t "/nonexistent/x.json" with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- allocation-free hot path (calibration idiom from test_layout) --- *)

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

let alloc_sweep t name_str =
  let n = Tracer.intern t name_str in
  let iters = 5_000 in
  for _ = 1 to 64 do
    Tracer.span_begin t n;
    Tracer.span_end t n
  done;
  let before = Gc.minor_words () in
  for i = 1 to iters do
    Tracer.span_begin t n;
    Tracer.sample t n (float_of_int i);
    Tracer.span_end t n
  done;
  let allocated = Gc.minor_words () -. before in
  (* one boxed float per iteration for the sample argument under dev
     -opaque; the record path itself must not allocate *)
  (allocated, (float_of_int iters *. 2.0 *. float_box_words) +. 256.0)

let test_hot_path_allocation_free () =
  (* enabled tracer; the sweep's 15,128 events grow the log twice. A
     grown column is too large for the minor heap, so growth is paid on
     the major heap, amortised over the events that filled the log *)
  let t = Tracer.create () in
  let allocated, budget = alloc_sweep t "hot" in
  checkb "sweep crossed a growth" true (Tracer.recorded t > initial_events);
  checkb
    (Printf.sprintf "enabled sweep allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true
    (allocated <= budget);
  Tracer.close t;
  (* null tracer: same sweep, same budget *)
  let allocated, budget = alloc_sweep Tracer.null "hot" in
  checkb
    (Printf.sprintf "null sweep allocation-free (%.0f minor words, budget %.0f)" allocated
       budget)
    true
    (allocated <= budget)

let () =
  Alcotest.run "tracer"
    [
      ( "tracer",
        [
          Alcotest.test_case "lossless export" `Quick test_lossless_export;
          Alcotest.test_case "lossless under gc alarm" `Quick test_lossless_under_gc_alarm;
          Alcotest.test_case "session traces through obs" `Quick
            test_session_traces_through_obs;
          Alcotest.test_case "null no-ops" `Quick test_null_noops;
          Alcotest.test_case "hot path allocation-free" `Quick
            test_hot_path_allocation_free;
        ] );
    ]
