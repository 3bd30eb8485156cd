(* Streaming tracer tests: exact ring-buffer overflow accounting, spill
   losslessness, Chrome trace_event export validity (including
   unmatched-end suppression after a wrap), null no-ops, a session's
   spans reaching the tracer through its [obs], and the allocation-free
   hot path. *)

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

(* --- overflow accounting --- *)

let test_wraparound_exact_drops () =
  let cap = 64 in
  let t = Tracer.create ~capacity:cap () in
  let n = Tracer.intern t "ev" in
  (* fill exactly: nothing dropped *)
  for _ = 1 to cap do
    Tracer.instant t n
  done;
  checki "recorded at cap" cap (Tracer.recorded t);
  checki "dropped at cap" 0 (Tracer.dropped t);
  (* each further event overwrites exactly one: drops count is exact *)
  for _ = 1 to 17 do
    Tracer.instant t n
  done;
  checki "recorded past cap" (cap + 17) (Tracer.recorded t);
  checki "dropped past cap" 17 (Tracer.dropped t);
  Tracer.close t

let test_spill_lossless () =
  with_tmp ".spill" @@ fun spill ->
  let cap = 32 in
  let t = Tracer.create ~capacity:cap ~spill () in
  let n = Tracer.intern t "ev" in
  let total = (cap * 5) + 7 in
  for i = 1 to total do
    Tracer.sample t n (float_of_int i)
  done;
  (* a full ring spills instead of wrapping: nothing is ever dropped *)
  checki "recorded" total (Tracer.recorded t);
  checki "dropped with spill" 0 (Tracer.dropped t);
  checkb "some records spilled" true (Tracer.spilled t >= cap * 5);
  Tracer.flush t;
  checki "flush spills residue" total (Tracer.spilled t);
  (* 20 bytes per record on disk *)
  checki "spill file size" (total * 20) (String.length (read_file spill));
  (* export sees every event, in order, with the original arguments *)
  with_tmp ".json" @@ fun out ->
  Tracer.write_chrome_json t out;
  let j = Json.of_string (read_file out) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> List.filter (fun e -> Json.member "ph" e = Some (Json.String "C")) l
    | _ -> Alcotest.fail "no traceEvents"
  in
  checki "all counter samples exported" total (List.length events);
  let args_of e =
    match Json.member "args" e with
    | Some a -> (match Json.member "value" a with Some v -> Json.to_float v | None -> nan)
    | None -> nan
  in
  List.iteri
    (fun i e -> Alcotest.(check (float 0.0)) "sample order" (float_of_int (i + 1)) (args_of e))
    events;
  Tracer.close t

(* --- Chrome export validity --- *)

let test_export_balanced_after_wrap () =
  (* overflow a small ring with nested spans so some begins are
     overwritten, then check the exported JSON parses and never closes a
     span it didn't open (depth never goes negative per tid) *)
  let t = Tracer.create ~capacity:16 () in
  let outer = Tracer.intern t "outer" and inner = Tracer.intern t "inner" in
  for _ = 1 to 40 do
    Tracer.span_begin t outer;
    Tracer.span_begin t inner;
    Tracer.span_end t inner;
    Tracer.span_end t outer
  done;
  checkb "ring wrapped" true (Tracer.dropped t > 0);
  with_tmp ".json" @@ fun out ->
  Tracer.write_chrome_json t out;
  let j = Json.of_string (read_file out) in
  (match Json.member "otherData" j with
  | Some od ->
    checkb "drop count exported" true
      (Json.member "dropped_events" od = Some (Json.Int (Tracer.dropped t)))
  | None -> Alcotest.fail "no otherData");
  let events = match Json.member "traceEvents" j with Some (Json.List l) -> l | _ -> [] in
  checkb "events survive the wrap" true (List.length events > 8);
  let depth = ref 0 in
  List.iter
    (fun e ->
      match Json.member "ph" e with
      | Some (Json.String "B") -> incr depth
      | Some (Json.String "E") ->
        decr depth;
        checkb "no unmatched end" true (!depth >= 0)
      | _ -> ())
    events;
  (* timestamps are non-decreasing within the single track *)
  let last = ref neg_infinity in
  List.iter
    (fun e ->
      match Json.member "ts" e with
      | Some ts ->
        let ts = Json.to_float ts in
        checkb "monotone timestamps" true (ts >= !last);
        last := ts
      | None -> ())
    events;
  Tracer.close t

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
  Tracer.flush t;
  Tracer.close t;
  checki "nothing recorded" 0 (Tracer.recorded t);
  checki "nothing dropped" 0 (Tracer.dropped t);
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
  (* enabled tracer, ring-wrap regime (no spill: spilling does I/O) *)
  let t = Tracer.create ~capacity:1024 () in
  let allocated, budget = alloc_sweep t "hot" in
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
          Alcotest.test_case "wraparound exact drops" `Quick test_wraparound_exact_drops;
          Alcotest.test_case "spill lossless" `Quick test_spill_lossless;
          Alcotest.test_case "export balanced after wrap" `Quick
            test_export_balanced_after_wrap;
          Alcotest.test_case "session traces through obs" `Quick
            test_session_traces_through_obs;
          Alcotest.test_case "null no-ops" `Quick test_null_noops;
          Alcotest.test_case "hot path allocation-free" `Quick
            test_hot_path_allocation_free;
        ] );
    ]
