(* Unit tests for the observability subsystem: counter monotonicity,
   nested span timing, JSON round-trip, and the null sink's
   allocation-free hot path. *)

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

(* --- tracer mirroring --- *)

let test_tracer_mirroring () =
  let module Tracer = Css_util.Tracer in
  let t = Obs.create () in
  let tr = Tracer.create () in
  Obs.attach_tracer t tr;
  checkb "tracer attached" true (Tracer.enabled (Obs.tracer t));
  Obs.span t "phase" (fun () ->
      Obs.snapshot t ~label:"sched.iter" [ ("wns", Json.Float (-1.0)) ]);
  (* span open+close and the snapshot instant: three tracer events *)
  checki "mirrored events" 3 (Tracer.recorded tr);
  let path = Filename.temp_file "obs_mirror" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Tracer.close tr)
    (fun () ->
      Tracer.write_chrome_json tr path;
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let events =
        match Json.member "traceEvents" (Json.of_string s) with
        | Some (Json.List l) -> l
        | _ -> []
      in
      let phase_of e =
        match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?"
      in
      let named n e = Json.member "name" e = Some (Json.String n) in
      checkb "span begin exported" true
        (List.exists (fun e -> phase_of e = "B" && named "phase" e) events);
      checkb "span end exported" true
        (List.exists (fun e -> phase_of e = "E") events);
      checkb "snapshot exported as instant" true
        (List.exists (fun e -> phase_of e = "i" && named "sched.iter" e) events));
  (* a null obs never touches an attached tracer *)
  Obs.attach_tracer Obs.null tr;
  let before = Tracer.recorded tr in
  Obs.span Obs.null "x" (fun () -> ());
  checki "null obs mirrors nothing" before (Tracer.recorded tr)

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
      ( "clock", [ Alcotest.test_case "monotonic source and epoch" `Quick test_clock_key ] );
      ( "tracer", [ Alcotest.test_case "mirroring" `Quick test_tracer_mirroring ] );
      ( "null sink",
        [
          Alcotest.test_case "no-op semantics" `Quick test_null_sink_noop;
          Alcotest.test_case "allocation-free hot path" `Quick test_null_sink_allocation_free;
        ] );
    ]
