(* Tests for the design database and its textual serialization. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Point = Css_geometry.Point
module Rect = Css_geometry.Rect
module Library = Css_liberty.Library

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)

let p = Point.make

let fresh_design () =
  Design.create ~name:"t" ~library:Library.default
    ~die:(Rect.make ~lx:0. ~ly:0. ~hx:1000. ~hy:1000.)
    ~clock_period:500.0 ()

(* A small but complete design: clk -> lcb -> {ff1, ff2}; in -> inv ->
   ff1.D; ff1.Q -> inv2 -> ff2.D; ff2.Q -> out. *)
let build_small () =
  let d = fresh_design () in
  let clk = Design.add_port d ~name:"clk" ~dir:Design.In ~pos:(p 0. 0.) in
  Design.set_clock_root d clk;
  let inp = Design.add_port d ~name:"in" ~dir:Design.In ~pos:(p 0. 500.) in
  let out = Design.add_port d ~name:"out" ~dir:Design.Out ~pos:(p 1000. 500.) in
  let lcb = Design.add_cell d ~name:"lcb" ~master:"LCB" ~pos:(p 100. 100.) in
  let ff1 = Design.add_cell d ~name:"ff1" ~master:"DFF" ~pos:(p 200. 150.) in
  let ff2 = Design.add_cell d ~name:"ff2" ~master:"DFF" ~pos:(p 500. 150.) in
  let inv1 = Design.add_cell d ~name:"inv1" ~master:"INV_X1" ~pos:(p 120. 400.) in
  let inv2 = Design.add_cell d ~name:"inv2" ~master:"INV_X1" ~pos:(p 350. 150.) in
  let pin c n = Design.cell_pin d c n in
  ignore (Design.add_net d ~name:"nclk" ~driver:(Design.port_pin d clk) ~sinks:[ pin lcb "CKI" ]);
  ignore
    (Design.add_net d ~name:"nck" ~driver:(pin lcb "CKO") ~sinks:[ pin ff1 "CK"; pin ff2 "CK" ]);
  ignore (Design.add_net d ~name:"nin" ~driver:(Design.port_pin d inp) ~sinks:[ pin inv1 "A" ]);
  ignore (Design.add_net d ~name:"nd1" ~driver:(pin inv1 "Z") ~sinks:[ pin ff1 "D" ]);
  ignore (Design.add_net d ~name:"nq1" ~driver:(pin ff1 "Q") ~sinks:[ pin inv2 "A" ]);
  ignore (Design.add_net d ~name:"nd2" ~driver:(pin inv2 "Z") ~sinks:[ pin ff2 "D" ]);
  ignore (Design.add_net d ~name:"nq2" ~driver:(pin ff2 "Q") ~sinks:[ Design.port_pin d out ]);
  (d, ff1, ff2, lcb, inv1)

let test_counts () =
  let d, _, _, _, _ = build_small () in
  checki "cells" 5 (Design.num_cells d);
  checki "nets" 7 (Design.num_nets d);
  checki "ports" 3 (Design.num_ports d);
  checkb "well-formed" true (Design.check d = [])

let test_classification () =
  let d, ff1, _, lcb, inv1 = build_small () in
  checkb "ff" true (Design.is_ff d ff1);
  checkb "lcb" true (Design.is_lcb d lcb);
  checkb "inv not ff" false (Design.is_ff d inv1);
  checki "#ffs" 2 (Array.length (Design.ffs d));
  checki "#lcbs" 1 (Array.length (Design.lcbs d))

let test_clock_tree () =
  let d, ff1, ff2, lcb, _ = build_small () in
  checki "lcb of ff1" lcb (Design.lcb_of_ff d ff1);
  checki "lcb fanout" 2 (Design.lcb_fanout d lcb);
  let members = Design.ffs_of_lcb d lcb in
  checkb "members" true (List.mem ff1 members && List.mem ff2 members)

let test_physical_latency () =
  let d, ff1, ff2, _, _ = build_small () in
  let l1 = Design.physical_clock_latency d ff1 in
  let l2 = Design.physical_clock_latency d ff2 in
  checkb "insertion at least" true (l1 >= 45.0);
  checkb "farther ff sees more latency" true (l2 > l1)

let test_scheduled_latency () =
  let d, ff1, _, _, _ = build_small () in
  checkf 1e-9 "initially zero" 0.0 (Design.scheduled_latency d ff1);
  Design.set_scheduled_latency d ff1 12.5;
  checkf 1e-9 "set" 12.5 (Design.scheduled_latency d ff1);
  checkf 1e-9 "total = physical + scheduled"
    (Design.physical_clock_latency d ff1 +. 12.5)
    (Design.clock_latency d ff1);
  Design.clear_scheduled_latencies d;
  checkf 1e-9 "cleared" 0.0 (Design.scheduled_latency d ff1)

let test_move_cell () =
  let d, _, _, _, inv1 = build_small () in
  let orig = Design.cell_orig_pos d inv1 in
  Design.move_cell d inv1 (p 900. 900.);
  checkb "pos changed" true (Point.equal (Design.cell_pos d inv1) (p 900. 900.));
  checkb "orig anchored" true (Point.equal (Design.cell_orig_pos d inv1) orig)

let test_reconnect () =
  let d, ff1, _, lcb, _ = build_small () in
  let lcb2 = Design.add_cell d ~name:"lcb2" ~master:"LCB" ~pos:(p 800. 800.) in
  (* lcb2 needs a clock input and an (initially FF-free) output net *)
  let root_pin = Design.port_pin d (Option.get (Design.clock_root d)) in
  (match Design.pin_net d root_pin with
  | Some _ ->
    (* root already drives a net; attach via a fresh sink list is not
       possible, so give lcb2 its own stub clock: reuse checks below only
       need the output net *)
    ()
  | None -> ());
  ignore
    (Design.add_net d ~name:"nck2" ~driver:(Design.cell_pin d lcb2 "CKO") ~sinks:[]);
  Design.reconnect_ff_to_lcb d ~ff:ff1 ~lcb:lcb2;
  checki "new lcb" lcb2 (Design.lcb_of_ff d ff1);
  checki "old fanout shrank" 1 (Design.lcb_fanout d lcb);
  checki "new fanout" 1 (Design.lcb_fanout d lcb2);
  let lat = Design.physical_clock_latency d ff1 in
  checkb "latency reflects new branch" true (lat > 45.0)

let test_add_net_validation () =
  let d, ff1, _, _, _ = build_small () in
  let qpin = Design.cell_pin d ff1 "Q" in
  Alcotest.check_raises "driver already connected"
    (Invalid_argument "Design.add_net bad: pin already connected") (fun () ->
      ignore (Design.add_net d ~name:"bad" ~driver:qpin ~sinks:[]));
  let d2 = fresh_design () in
  let c = Design.add_cell d2 ~name:"i" ~master:"INV_X1" ~pos:(p 1. 1.) in
  Alcotest.check_raises "input pin as driver"
    (Invalid_argument "Design.add_net bad2: driver pin is not a signal source") (fun () ->
      ignore (Design.add_net d2 ~name:"bad2" ~driver:(Design.cell_pin d2 c "A") ~sinks:[]))

let test_check_catches_missing_clock () =
  let d = fresh_design () in
  ignore (Design.add_cell d ~name:"ff" ~master:"DFF" ~pos:(p 1. 1.));
  let errors = Design.check d in
  checkb "reports clockless ff" true
    (List.exists (fun e -> e = "flip-flop ff has no LCB clock source") errors)

let test_hpwl () =
  let d, _, _, _, _ = build_small () in
  checkb "positive hpwl" true (Design.total_hpwl d > 0.0);
  (* net nq2: ff2 (500,150) -> out port (1000,500): HPWL = 500 + 350 *)
  let nq2 = ref (-1) in
  Design.iter_nets d (fun n -> if Design.net_name d n = "nq2" then nq2 := n);
  checkf 1e-9 "single net hpwl" 850.0 (Design.net_hpwl d !nq2)

let test_pin_queries () =
  let d, ff1, _, _, _ = build_small () in
  let qpin = Design.cell_pin d ff1 "Q" in
  checkb "q is output" true (Design.pin_is_output d qpin);
  checkb "d is not output" false (Design.pin_is_output d (Design.cell_pin d ff1 "D"));
  (match Design.pin_owner d qpin with
  | Design.Cell_pin (c, name) ->
    checki "owner cell" ff1 c;
    Alcotest.check Alcotest.string "owner pin" "Q" name
  | Design.Port_pin _ -> Alcotest.fail "wrong owner");
  Alcotest.check_raises "unknown pin name" Not_found (fun () ->
      ignore (Design.cell_pin d ff1 "NOPE"))

(* ------------------------------------------------------------------ *)
(* Io *)

let test_io_roundtrip () =
  let d, ff1, _, _, _ = build_small () in
  Design.set_scheduled_latency d ff1 7.25;
  let s = Io.to_string d in
  let d2 = Io.of_string_exn ~library:Library.default s in
  checki "cells" (Design.num_cells d) (Design.num_cells d2);
  checki "nets" (Design.num_nets d) (Design.num_nets d2);
  checki "ports" (Design.num_ports d) (Design.num_ports d2);
  checkb "check ok" true (Design.check d2 = []);
  checkf 1e-9 "period" (Design.clock_period d) (Design.clock_period d2);
  checkf 1e-6 "hpwl preserved" (Design.total_hpwl d) (Design.total_hpwl d2);
  (* the scheduled latency line survives *)
  let ff1' =
    Array.to_list (Design.ffs d2)
    |> List.find (fun c -> Design.cell_name d2 c = "ff1")
  in
  checkf 1e-9 "latency" 7.25 (Design.scheduled_latency d2 ff1');
  checkb "clock root survives" true (Design.clock_root d2 <> None)

let test_io_double_roundtrip_stable () =
  let d, _, _, _, _ = build_small () in
  let s1 = Io.to_string d in
  let s2 = Io.to_string (Io.of_string_exn ~library:Library.default s1) in
  Alcotest.check Alcotest.string "fixpoint" s1 s2

let test_io_errors () =
  let try_load s = ignore (Io.of_string_exn ~library:Library.default s) in
  checkb "unknown master" true
    (try
       try_load "design x period 10\ndie 0 0 1 1\ncell a NOPE 0 0\n";
       false
     with Failure m -> String.length m > 0);
  checkb "unknown cell in net" true
    (try
       try_load "design x period 10\ndie 0 0 1 1\nnet n ghost:Z\n";
       false
     with Failure _ -> true);
  checkb "missing header" true
    (try
       try_load "cell a INV_X1 0 0\n";
       false
     with Failure _ -> true)

let test_io_comments_and_blanks () =
  let s = "# a comment\n\ndesign x period 10\ndie 0 0 100 100\n  \nport p in 0 0\n" in
  let d = Io.of_string_exn ~library:Library.default s in
  checki "one port" 1 (Design.num_ports d)

let test_io_file_roundtrip () =
  let d, _, _, _, _ = build_small () in
  let path = Filename.temp_file "cssdesign" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save d path;
      let d2 = Io.load_exn ~library:Library.default path in
      checki "cells" (Design.num_cells d) (Design.num_cells d2))

(* ------------------------------------------------------------------ *)
(* Verilog / DEF export *)

module Verilog = Css_netlist.Verilog

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

let test_verilog_export () =
  let d, _, _, _, _ = build_small () in
  let v = Verilog.to_verilog d in
  checkb "module header" true (contains v "module t (");
  checkb "endmodule" true (contains v "endmodule");
  checkb "input port" true (contains v "input clk");
  checkb "output port" true (contains v "output out");
  (* every instance appears with its master *)
  Design.iter_cells d (fun c ->
      checkb
        (Printf.sprintf "instance %s present" (Design.cell_name d c))
        true
        (contains v (Printf.sprintf " %s (" (Design.cell_name d c))));
  (* a port-connected net is wired by the port's name *)
  checkb "port wiring" true (contains v ".Z(out)" || contains v "(out)");
  checkb "named connection" true (contains v ".D(")

let test_verilog_deterministic () =
  let d1, _, _, _, _ = build_small () in
  let d2, _, _, _, _ = build_small () in
  Alcotest.check Alcotest.string "deterministic" (Verilog.to_verilog d1) (Verilog.to_verilog d2)

let test_def_export () =
  let d, _, _, _, _ = build_small () in
  let def = Verilog.to_def d in
  checkb "design line" true (contains def "DESIGN t ;");
  checkb "diearea" true (contains def "DIEAREA ( 0 0 ) ( 1000 1000 ) ;");
  checkb "component count" true (contains def (Printf.sprintf "COMPONENTS %d ;" (Design.num_cells d)));
  Design.iter_cells d (fun c ->
      checkb "placed" true (contains def (Printf.sprintf "- %s " (Design.cell_name d c))))

let test_verilog_file_io () =
  let d, _, _, _, _ = build_small () in
  let path = Filename.temp_file "css" ".v" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Verilog.save_verilog d path;
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Alcotest.check Alcotest.string "file contents" (Verilog.to_verilog d) s)

(* ------------------------------------------------------------------ *)
(* SDC-lite constraints *)

module Sdc = Css_netlist.Sdc

let test_sdc_parse () =
  let text =
    "# header comment\n\
     create_clock -period 500\n\
     set_clock_uncertainty -setup 25   # inline comment\n\
     set_clock_uncertainty -hold 10\n\
     set_timing_derate -early 0.9\n\
     set_latency_bounds ff1 0 150\n\
     set_latency_bounds ff2 5 90\n\
     set_max_displacement 400\n\
     set_lcb_fanout_limit 50\n"
  in
  let c = Sdc.parse_exn text in
  checkb "period" true (c.Sdc.period = Some 500.0);
  checkf 1e-9 "setup" 25.0 c.Sdc.setup_uncertainty;
  checkf 1e-9 "hold" 10.0 c.Sdc.hold_uncertainty;
  checkb "derate" true (c.Sdc.early_derate = Some 0.9);
  checki "two windows" 2 (List.length c.Sdc.latency_bounds);
  checkb "displacement" true (c.Sdc.max_displacement = Some 400.0);
  (* the fanout limit is not applied anywhere: a stable warning says so *)
  match Sdc.parse text with
  | Ok (_, [ d ]) ->
    Alcotest.(check string) "ignored fanout limit" "SDC-006" d.Css_util.Diag.code;
    checkb "a warning" false (Css_util.Diag.is_error d);
    checkb "its line" true (d.Css_util.Diag.line = Some 9)
  | Ok (_, ds) -> Alcotest.failf "expected one SDC-006 warning, got %d diagnostics" (List.length ds)
  | Error _ -> Alcotest.fail "parse failed"

let test_sdc_errors () =
  let fails s = try ignore (Sdc.parse_exn s); false with Failure _ -> true in
  checkb "unknown command" true (fails "set_wishful_thinking 1\n");
  checkb "malformed number" true (fails "create_clock -period banana\n");
  checkb "arity" true (fails "set_latency_bounds ff1 0\n")

let test_sdc_apply () =
  let d, ff1, _, _, _ = build_small () in
  let c = Sdc.parse_exn "create_clock -period 500\nset_latency_bounds ff1 0 77\n" in
  Sdc.apply_exn c d;
  checkf 1e-9 "window applied" 77.0 (snd (Design.latency_bounds d ff1));
  (* wrong period is rejected *)
  let bad = Sdc.parse_exn "create_clock -period 123\n" in
  checkb "period mismatch rejected" true
    (try Sdc.apply_exn bad d; false with Failure _ -> true);
  (* unknown flop is rejected *)
  let ghost = Sdc.parse_exn "set_latency_bounds casper 0 9\n" in
  checkb "ghost flop rejected" true (try Sdc.apply_exn ghost d; false with Failure _ -> true)

(* Golden diagnostic renderings: the exact one-line messages the CLI
   prints. Pinned so error UX changes are deliberate, not accidental. *)

let expect_failure golden f =
  match f () with
  | _ -> Alcotest.failf "expected Failure %S" golden
  | exception Failure m -> Alcotest.(check string) "message" golden m

let test_golden_missing_header () =
  expect_failure
    "error[IO-002] missing design header (need 'design <name> period <T>' and 'die <lx> <ly> \
     <hx> <hy>')" (fun () -> Io.of_string_exn ~library:Library.default "# just a comment\n")

let test_golden_truncated_netlist () =
  (* the tail of a cell line cut off mid-token *)
  expect_failure "error[IO-001] line 3: unrecognized line: cell ff1 DF" (fun () ->
      Io.of_string_exn ~library:Library.default
        "design t period 400\ndie 0 0 100 100\ncell ff1 DF")

let test_golden_unknown_master_hint () =
  expect_failure {|error[IO-006] line 3: unknown master DFG (hint: did you mean "DFF"?)|}
    (fun () ->
      Io.of_string_exn ~library:Library.default
        "design t period 400\ndie 0 0 100 100\ncell ff1 DFG 5 5")

let test_golden_bad_sdc_number () =
  expect_failure {|error[SDC-004] line 1: expected a number, got "abc"|} (fun () ->
      Sdc.parse_exn "create_clock -period abc")

let test_golden_bad_sdc_command () =
  expect_failure
    ("error[SDC-001] line 2: unknown or malformed command \"set_cock_uncertainty\" "
    ^ {|(hint: did you mean "set_clock_uncertainty"?)|})
    (fun () -> Sdc.parse_exn "create_clock -period 400\nset_cock_uncertainty -setup 10")

let () =
  Alcotest.run "netlist"
    [
      ( "design",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "clock tree" `Quick test_clock_tree;
          Alcotest.test_case "physical latency" `Quick test_physical_latency;
          Alcotest.test_case "scheduled latency" `Quick test_scheduled_latency;
          Alcotest.test_case "move cell" `Quick test_move_cell;
          Alcotest.test_case "reconnect" `Quick test_reconnect;
          Alcotest.test_case "add_net validation" `Quick test_add_net_validation;
          Alcotest.test_case "check: missing clock" `Quick test_check_catches_missing_clock;
          Alcotest.test_case "hpwl" `Quick test_hpwl;
          Alcotest.test_case "pin queries" `Quick test_pin_queries;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "export" `Quick test_verilog_export;
          Alcotest.test_case "deterministic" `Quick test_verilog_deterministic;
          Alcotest.test_case "def" `Quick test_def_export;
          Alcotest.test_case "file io" `Quick test_verilog_file_io;
        ] );
      ( "sdc",
        [
          Alcotest.test_case "parse" `Quick test_sdc_parse;
          Alcotest.test_case "errors" `Quick test_sdc_errors;
          Alcotest.test_case "apply" `Quick test_sdc_apply;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "roundtrip is a fixpoint" `Quick test_io_double_roundtrip_stable;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ] );
      ( "golden-messages",
        [
          Alcotest.test_case "missing header" `Quick test_golden_missing_header;
          Alcotest.test_case "truncated netlist" `Quick test_golden_truncated_netlist;
          Alcotest.test_case "unknown master hint" `Quick test_golden_unknown_master_hint;
          Alcotest.test_case "bad sdc number" `Quick test_golden_bad_sdc_number;
          Alcotest.test_case "bad sdc command" `Quick test_golden_bad_sdc_command;
        ] );
    ]
