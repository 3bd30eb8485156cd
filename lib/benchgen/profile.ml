type t = {
  name : string;
  seed : int;
  num_ffs : int;
  num_lcbs : int;
  num_inputs : int;
  num_outputs : int;
  die_side : float;
  clock_period : float;
  depth_ok : int * int;
  depth_violating : int * int;
  late_violation_frac : float;
  hold_victim_frac : float;
  cycle_pairs : int;
  port_path_frac : float;
  port_violation_frac : float;
  tap_prob : float;
  conflict_pairs : int;
  cluster_sigma : float;
  victim_branch : float * float;
}

let base =
  {
    name = "base";
    seed = 1;
    num_ffs = 1000;
    num_lcbs = 50;
    num_inputs = 48;
    num_outputs = 48;
    die_side = 9000.0;
    clock_period = 600.0;
    depth_ok = (2, 6);
    depth_violating = (11, 16);
    late_violation_frac = 0.06;
    hold_victim_frac = 0.035;
    cycle_pairs = 4;
    port_path_frac = 0.04;
    port_violation_frac = 0.25;
    tap_prob = 0.15;
    conflict_pairs = 0;
    cluster_sigma = 160.0;
    victim_branch = (1500.0, 2800.0);
  }

(* Eight superblue-like presets at ~1/100 of the paper's FF counts; the
   relative ordering of sizes and the per-design quirks (superblue7's
   unfixable hold conflicts, superblue10's heavy late violations) follow
   Table I. *)
let presets =
  [
    { base with name = "sb1"; seed = 101; num_ffs = 1440; num_lcbs = 72; num_inputs = 60;
      num_outputs = 60; die_side = 10000.0; late_violation_frac = 0.05; hold_victim_frac = 0.03 };
    { base with name = "sb3"; seed = 103; num_ffs = 1680; num_lcbs = 84; num_inputs = 66;
      num_outputs = 66; die_side = 10500.0; late_violation_frac = 0.08; hold_victim_frac = 0.045;
      cycle_pairs = 6 };
    { base with name = "sb4"; seed = 104; num_ffs = 1770; num_lcbs = 88; num_inputs = 70;
      num_outputs = 70; die_side = 10500.0; late_violation_frac = 0.12; hold_victim_frac = 0.03;
      cycle_pairs = 8 };
    { base with name = "sb5"; seed = 105; num_ffs = 1140; num_lcbs = 57; num_inputs = 52;
      num_outputs = 52; die_side = 9500.0; late_violation_frac = 0.1; hold_victim_frac = 0.06;
      depth_violating = (12, 18); cycle_pairs = 6 };
    { base with name = "sb7"; seed = 107; num_ffs = 2700; num_lcbs = 135; num_inputs = 90;
      num_outputs = 90; die_side = 13000.0; late_violation_frac = 0.05; hold_victim_frac = 0.05;
      conflict_pairs = 10; cycle_pairs = 8 };
    { base with name = "sb10"; seed = 110; num_ffs = 2410; num_lcbs = 121; num_inputs = 84;
      num_outputs = 84; die_side = 12500.0; late_violation_frac = 0.2; hold_victim_frac = 0.025;
      depth_violating = (12, 18); cycle_pairs = 10 };
    { base with name = "sb16"; seed = 116; num_ffs = 1430; num_lcbs = 71; num_inputs = 58;
      num_outputs = 58; die_side = 9800.0; late_violation_frac = 0.05; hold_victim_frac = 0.04 };
    { base with name = "sb18"; seed = 118; num_ffs = 1040; num_lcbs = 52; num_inputs = 48;
      num_outputs = 48; die_side = 9000.0; late_violation_frac = 0.07; hold_victim_frac = 0.02;
      cycle_pairs = 4 };
  ]

let scale f p =
  let s x = max 1 (int_of_float (Float.round (f *. float_of_int x))) in
  {
    p with
    num_ffs = s p.num_ffs;
    num_lcbs = s p.num_lcbs;
    num_inputs = s p.num_inputs;
    num_outputs = s p.num_outputs;
    cycle_pairs = s p.cycle_pairs;
    conflict_pairs = (if p.conflict_pairs = 0 then 0 else s p.conflict_pairs);
    die_side = p.die_side *. Float.max 0.3 (sqrt f);
  }

(* Paper-size variants: x100 on the entity counts restores the superblue
   flip-flop counts of Table I (sb18-paper generates ~1.0M cells). The
   die grows with sqrt(x), so cross-die wire spans — and with them the
   delay floor every path pays — grow by ~sqrt(x) too; stretching the
   clock period by the same sqrt(x) keeps the *fraction* of violating
   endpoints in the sparse band the presets were calibrated for
   (measured at x100: 8.5% late / 1.9% early, vs 22% late with the
   period left untouched). Sparse violations are the precondition that
   makes essential extraction pay off, so paper-size runs must keep
   them sparse to measure what the paper measures. *)
let paper_factor = 100.0

let paper p =
  let scaled = scale paper_factor p in
  { scaled with name = p.name ^ "-paper"; clock_period = p.clock_period *. sqrt paper_factor }

let tiny =
  {
    base with
    name = "tiny";
    seed = 42;
    num_ffs = 24;
    num_lcbs = 3;
    num_inputs = 4;
    num_outputs = 4;
    die_side = 2500.0;
    cycle_pairs = 1;
    hold_victim_frac = 0.1;
    late_violation_frac = 0.15;
  }

(* [tiny] is not a preset: perfbench's css-suite and the Table I bench
   iterate [presets] *)
let by_name n =
  match List.find_opt (fun p -> p.name = n) (tiny :: presets) with
  | Some p -> Some p
  | None ->
    let suffix = "-paper" in
    let sn = String.length suffix and nn = String.length n in
    if nn > sn && String.sub n (nn - sn) sn = suffix then
      Option.map paper (List.find_opt (fun p -> p.name = String.sub n 0 (nn - sn)) presets)
    else None
