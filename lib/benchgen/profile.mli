(** Benchmark profiles: the knobs of the synthetic design generator.

    The ICCAD-2015 superblue designs are proprietary; these profiles
    produce designs with the same *structural drivers* of CSS behaviour —
    late-violating multi-level paths, hold victims created by clock-branch
    imbalance, reciprocal (cycle) violations, unfixable port paths, and
    shared fan-in cones — at laptop scale (roughly 1/100 of the paper's
    flip-flop counts). See DESIGN.md for the substitution rationale. *)

type t = {
  name : string;
  seed : int;
  num_ffs : int;
  num_lcbs : int;
  num_inputs : int;
  num_outputs : int;
  die_side : float;  (** square die side, DBU *)
  clock_period : float;  (** ps *)
  depth_ok : int * int;  (** logic depth range of paths meant to meet timing *)
  depth_violating : int * int;  (** depth range of paths meant to violate setup *)
  late_violation_frac : float;  (** fraction of FF receivers given violating depth *)
  hold_victim_frac : float;  (** fraction of FFs wired as hold victims *)
  cycle_pairs : int;  (** reciprocal violating FF pairs (sequential cycles) *)
  port_path_frac : float;  (** receivers launched from input ports *)
  port_violation_frac : float;  (** output-port paths given violating depth *)
  tap_prob : float;  (** probability an extra gate input taps the signal pool *)
  conflict_pairs : int;
      (** hold victims whose launcher is also late-critical — violations no
          skew schedule can fully repair (the paper's superblue7 residue) *)
  cluster_sigma : float;  (** FF scatter radius around the home LCB, DBU *)
  victim_branch : float * float;  (** hold victims' LCB distance range, DBU *)
}

(** [presets] are the eight superblue-like designs of Table I:
    sb1, sb3, sb4, sb5, sb7, sb10, sb16, sb18. *)
val presets : t list

(** [by_name n] finds {!tiny}, a preset ("sb1" .. "sb18") or a preset's
    paper-size variant ("sb1-paper" .. "sb18-paper", see {!paper}).
    O(#presets). *)
val by_name : string -> t option

(** [scale f p] multiplies the entity counts by [f] (at least 1 of each),
    leaving timing knobs untouched. *)
val scale : float -> t -> t

(** [paper p] is the true paper-size variant of preset [p]: entity counts
    scaled by 100 (the presets sit at ~1/100 of the paper's flip-flop
    counts) — restoring the superblue flip-flop counts of Table I,
    ~0.5-1.5M cells — with the clock period stretched by its square root
    so the violating-endpoint fraction stays in the sparse
    band the presets were calibrated for. Named ["<name>-paper"]. *)
val paper : t -> t

(** [tiny] is a 24-FF profile for tests and the quickstart example. *)
val tiny : t
