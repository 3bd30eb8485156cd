(* Layout contract of the struct-of-arrays design database
   (docs/PERFORMANCE.md): ids are assigned in construction order, never
   reused, written in id order by Io — so a design round-trips through
   its textual form byte-identically and every id keeps its meaning
   across [Flow.clone] and checkpoint rollback. Plus the allocation-free
   guarantee of the sentinel-flavoured accessors. *)

module Design = Css_netlist.Design
module Io = Css_netlist.Io
module Flow = Css_flow.Flow
module Generator = Css_benchgen.Generator
module Profile = Css_benchgen.Profile
module Obs = Css_util.Obs

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let library = Css_liberty.Library.default

let gen seed = Generator.generate { Profile.tiny with Profile.seed = seed }

(* ------------------------------------------------------------------ *)
(* Io round-trip byte identity *)

let reload s =
  match Io.of_string ~library s with
  | Ok (d, _) -> d
  | Error diags ->
    Alcotest.failf "round-trip parse failed: %s"
      (String.concat "; " (List.map Css_util.Diag.to_string diags))

let test_round_trip_byte_identical () =
  let d = gen 7 in
  let s1 = Io.to_string d in
  let s2 = Io.to_string (reload s1) in
  checkb "serialize(parse(serialize d)) = serialize d" true (String.equal s1 s2)

let test_round_trip_after_flow_byte_identical () =
  (* a flow run leaves scheduled latencies and moved cells behind; the
     mutated state must still serialize deterministically *)
  let d = gen 11 in
  ignore (Flow.run ~algo:Flow.Ours d);
  let s1 = Io.to_string d in
  let s2 = Io.to_string (reload s1) in
  checkb "post-flow round trip byte-identical" true (String.equal s1 s2)

(* ------------------------------------------------------------------ *)
(* Line edits: replaying one edited entity's lines onto a design parsed
   from the previous text must give, edit after edit, exactly the text of
   the edited design *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_line_edits_track_edits () =
  let d = gen 17 in
  let replayed = reload (Io.to_string d) in
  let step what edits =
    (match Io.apply_lines replayed edits with
    | Ok () -> ()
    | Error diag -> Alcotest.failf "%s: %s" what (Css_util.Diag.to_string diag));
    let text = Io.to_string replayed in
    checkb (what ^ ": replayed text = fresh text") true (String.equal text (Io.to_string d));
    text
  in
  ignore (step "no edits" []);
  let cell_named master =
    let found = ref (-1) in
    Design.iter_cells d (fun c ->
        if !found < 0 && (Design.cell_master d c).Css_liberty.Cell.name = master then found := c);
    checkb ("a " ^ master ^ " to edit") true (!found >= 0);
    !found
  in
  let inv = cell_named "INV_X1" and ff = (Design.ffs d).(0) in
  let cell c = Io.Cell_line (c, Io.cell_line d c) in
  let home = Design.cell_pos d inv in
  Design.move_cell d inv (Css_geometry.Point.make (home.Css_geometry.Point.x +. 37.5) 12.25);
  ignore (step "move_cell" [ cell inv ]);
  Design.move_cell d inv home;
  ignore (step "move back" [ cell inv ]);
  (* 0.0 and -0.0 are [=] but print differently *)
  let at x = Css_geometry.Point.make x home.Css_geometry.Point.y in
  let inv_line x = Printf.sprintf "\ncell %s INV_X1 %s " (Design.cell_name d inv) x in
  Design.move_cell d inv (at 0.0);
  checkb "x = 0.0 prints as 0" true (contains (step "x = 0.0" [ cell inv ]) (inv_line "0"));
  Design.move_cell d inv (at (-0.0));
  checkb "x = -0.0 prints as -0" true (contains (step "x = -0.0" [ cell inv ]) (inv_line "-0"));
  let latency () = Io.Latency_line (ff, Io.latency_line d ff) in
  let bounds () = Io.Bounds_line (ff, Io.bounds_line d ff) in
  Design.set_scheduled_latency d ff 12.5;
  ignore (step "set_scheduled_latency" [ latency () ]);
  Design.set_latency_bounds d ff ~lo:1.0 ~hi:40.0;
  ignore (step "set_latency_bounds" [ bounds () ]);
  Design.set_scheduled_latency d ff 0.0;
  Design.clear_latency_bounds d ff;
  ignore (step "clear latency and bounds" [ latency (); bounds () ]);
  (* a -0.0 latency writes no line and replays as +0.0, as a reparse of
     the text reads it *)
  Design.set_scheduled_latency replayed ff 7.0;
  Design.set_scheduled_latency d ff (-0.0);
  ignore (step "latency -0.0" [ latency () ]);
  checkb "a -0.0 latency replays as +0.0" true
    (Int64.bits_of_float (Design.scheduled_latency replayed ff) = 0L);
  let ck = Design.pin_net_id d (Design.cell_pin d ff "CK") in
  let lcbs = Design.lcbs d in
  let other = Option.get (Array.find_opt (fun l -> l <> Design.lcb_of_ff d ff) lcbs) in
  Design.reconnect_ff_to_lcb d ~ff ~lcb:other;
  let to_net = Design.pin_net_id d (Design.cell_pin d ff "CK") in
  ignore
    (step "reconnect_ff_to_lcb"
       [ Io.Net_line (ck, Io.net_line d ck); Io.Net_line (to_net, Io.net_line d to_net) ]);
  checki "the clock pin follows its net" to_net
    (Design.pin_net_id replayed (Design.cell_pin replayed ff "CK"));
  let before_swap = Io.cell_line d inv in
  Design.swap_master d inv "INV_X4";
  ignore (step "swap_master" [ cell inv ]);
  (* the later of two edits of one line wins *)
  ignore (step "two edits of one line" [ Io.Cell_line (inv, before_swap); cell inv ]);
  (* an edit that does not fit the design is a diagnostic, never an
     exception *)
  let rejected what code edits =
    match Io.apply_lines replayed edits with
    | Ok () -> Alcotest.failf "%s applies" what
    | Error diag -> Alcotest.(check string) what code diag.Css_util.Diag.code
    | exception e -> Alcotest.failf "%s raises %s" what (Printexc.to_string e)
  in
  rejected "an edit past the last cell" "IO-013" [ Io.Cell_line (Design.num_cells d, "cell x") ];
  rejected "a latency edit past the last cell" "IO-013" [ Io.Latency_line (-1, None) ];
  rejected "a cell line naming another cell" "IO-013" [ Io.Cell_line (ff, Io.cell_line d inv) ];
  rejected "a net edit past the last net" "IO-013"
    [ Io.Net_line (Design.num_nets d, Io.net_line d ck) ];
  rejected "an unknown master" "IO-006"
    [ Io.Cell_line (inv, Printf.sprintf "cell %s NOPE 0 0" (Design.cell_name d inv)) ];
  rejected "a pin left on two nets" "IO-012"
    [ Io.Net_line (ck, Printf.sprintf "%s %s:CK" (Io.net_line d ck) (Design.cell_name d ff)) ]

(* ------------------------------------------------------------------ *)
(* id stability: fingerprints over every id space *)

(* everything an id is allowed to mean. [pin_net_id] is excluded from
   the structural part because reconnection legitimately moves FF clock
   pins between clock nets; it is checked separately. *)
let structural_fingerprint d =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "counts %d %d %d %d\n" (Design.num_cells d)
       (Design.num_pins d) (Design.num_nets d) (Design.num_ports d));
  Design.iter_cells d (fun c ->
      Buffer.add_string b
        (Printf.sprintf "cell %d %s %s %b %b\n" c (Design.cell_name d c)
           (Design.cell_master d c).Css_liberty.Cell.name
           (Design.is_ff d c) (Design.is_lcb d c)));
  Design.iter_ports d (fun p ->
      Buffer.add_string b
        (Printf.sprintf "port %d %s %d\n" p (Design.port_name d p)
           (Design.port_pin d p)));
  for p = 0 to Design.num_pins d - 1 do
    Buffer.add_string b
      (Printf.sprintf "pin %d %d %d %b\n" p (Design.pin_cell_id d p)
         (Design.pin_port_id d p) (Design.pin_is_output d p))
  done;
  Design.iter_nets d (fun n ->
      Buffer.add_string b
        (Printf.sprintf "net %d %s %d\n" n (Design.net_name d n)
           (Design.net_driver_id d n)));
  Buffer.contents b

let ck_tok d = Design.pin_name_token d "CK"

(* pin -> net binding, with FF clock pins masked out *)
let signal_net_binding d =
  let tok = ck_tok d in
  Array.init (Design.num_pins d) (fun p ->
      let c = Design.pin_cell_id d p in
      if c >= 0 && Design.is_ff d c && Design.pin_name_id d p = tok then -2
      else Design.pin_net_id d p)

let test_ids_survive_round_trip () =
  let d = gen 13 in
  let d' = reload (Io.to_string d) in
  checkb "structural fingerprint stable" true
    (String.equal (structural_fingerprint d) (structural_fingerprint d'));
  checkb "every pin-net binding stable" true
    (Array.for_all2 ( = )
       (Array.init (Design.num_pins d) (Design.pin_net_id d))
       (Array.init (Design.num_pins d') (Design.pin_net_id d')))

let clone_ids_prop =
  QCheck.Test.make ~name:"pin/net ids survive Flow.clone" ~count:8
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let d = gen seed in
      let c = Flow.clone d in
      String.equal (structural_fingerprint d) (structural_fingerprint c)
      && Array.for_all2 ( = )
           (Array.init (Design.num_pins d) (Design.pin_net_id d))
           (Array.init (Design.num_pins c) (Design.pin_net_id c)))

let rollback_ids_prop =
  QCheck.Test.make ~name:"pin/net ids survive checkpoint rollback" ~count:4
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 100_000))
    (fun seed ->
      let d = gen seed in
      let before = structural_fingerprint d in
      let before_nets = signal_net_binding d in
      (* wreck the state worse after every phase — skew proportional to
         the FF ordinal at many multiples of the clock period, so any
         connected FF pair's slack drops far below whatever static WNS
         floor the design has (e.g. unskewable port paths) and keeps
         dropping: the unwrecked validation checkpoint scores best and
         the run must end in a rollback. (A uniform bump would be
         invisible to reg-to-reg slacks; a small one can hide under the
         port-path floor.) *)
      let phase_n = ref 0 in
      let obs = Obs.create () in
      let config =
        {
          Flow.default_config with
          Flow.rounds = 1;
          rollback = true;
          obs;
          on_phase_end =
            Some
              (fun ~round:_ ~phase:_ design ->
                incr phase_n;
                let bump =
                  float_of_int !phase_n *. 10.0 *. Design.clock_period design
                in
                Array.iteri
                  (fun i ff ->
                    Design.set_scheduled_latency design ff
                      (float_of_int (i + 1) *. bump))
                  (Design.ffs design));
        }
      in
      ignore (Flow.run ~config ~algo:Flow.Ours d);
      let rolled_back =
        match List.assoc_opt "flow.rollbacks" (Obs.counters obs) with
        | Some n -> n > 0
        | None -> false
      in
      if not rolled_back then
        QCheck.Test.fail_report "flow never rolled back; property untested";
      String.equal before (structural_fingerprint d)
      && Array.for_all2 ( = ) before_nets (signal_net_binding d)
      && Design.check d = [])

(* ------------------------------------------------------------------ *)
(* allocation-free accessors: the SoA columns' whole point *)

(* Dev-profile builds pass [-opaque], which blocks cross-module
   inlining: every float-returning accessor call then boxes its result
   (2 minor words). Calibrate that per-call cost on a trivial [Fvec]
   read so the float sweeps are strict (0-budget) under release
   inlining and tolerate exactly the boxing — nothing more — in dev. *)
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

let test_accessors_allocation_free () =
  let d = gen 17 in
  let n_pins = Design.num_pins d in
  (* a float-array cell, not a [float ref]: ref updates box a float per
     assignment, which would charge the test's own scaffolding to the
     accessors under test *)
  let acc = [| 0.0 |] and ids = ref 0 in
  (* warm up: fault in the ffs/lcbs caches and any lazy columns *)
  ignore (Design.ffs d);
  ignore (Design.lcbs d);
  for p = 0 to n_pins - 1 do
    acc.(0) <- acc.(0) +. Design.pin_x d p
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    for p = 0 to n_pins - 1 do
      ids := !ids + Design.pin_net_id d p + Design.pin_cell_id d p
             + Design.pin_port_id d p + Design.pin_name_id d p;
      acc.(0) <- acc.(0) +. Design.pin_x d p +. Design.pin_y d p;
      if Design.pin_is_output d p then incr ids
    done
  done;
  let allocated = Gc.minor_words () -. before in
  (* two float-returning calls per pin per sweep; everything else in the
     loop must not allocate at all *)
  let budget = (float_of_int (50 * n_pins) *. 2.0 *. float_box_words) +. 256.0 in
  checkb
    (Printf.sprintf
       "pin accessor sweep allocation-free (%.0f minor words, budget %.0f)"
       allocated budget)
    true
    (allocated <= budget);
  (* the accumulators keep the loop from being dead-code eliminated *)
  checkb "loop ran" true (!ids <> 0 || acc.(0) <> 0.0)

let test_net_iteration_allocation_free () =
  let d = gen 19 in
  let n_nets = Design.num_nets d in
  let count = ref 0 in
  let visit p = count := !count + p in
  for n = 0 to n_nets - 1 do
    Design.iter_net_sinks d n visit
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 50 do
    for n = 0 to n_nets - 1 do
      count := !count + Design.net_driver_id d n + Design.net_fanout d n;
      Design.iter_net_sinks d n visit
    done
  done;
  let allocated = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "net iteration allocation-free (%.0f minor words)"
       allocated)
    true
    (allocated < 256.0);
  checkb "loop ran" true (!count <> 0)

let test_ff_index_is_dense () =
  let d = gen 23 in
  let ffs = Design.ffs d in
  Array.iteri (fun i ff -> checki "ff_index inverts ffs" i (Design.ff_index d ff)) ffs;
  Design.iter_cells d (fun c ->
      if not (Design.is_ff d c) then checki "non-FF ordinal" (-1) (Design.ff_index d c))

let () =
  Alcotest.run "layout"
    [
      ( "io-round-trip",
        [
          Alcotest.test_case "byte-identical" `Quick test_round_trip_byte_identical;
          Alcotest.test_case "byte-identical after flow" `Slow
            test_round_trip_after_flow_byte_identical;
          Alcotest.test_case "ids survive round trip" `Quick test_ids_survive_round_trip;
          Alcotest.test_case "line edits track edits" `Quick test_line_edits_track_edits;
        ] );
      ( "id-stability",
        [
          QCheck_alcotest.to_alcotest clone_ids_prop;
          QCheck_alcotest.to_alcotest rollback_ids_prop;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "pin accessors" `Quick test_accessors_allocation_free;
          Alcotest.test_case "net iteration" `Quick test_net_iteration_allocation_free;
          Alcotest.test_case "ff_index dense" `Quick test_ff_index_is_dense;
        ] );
    ]
