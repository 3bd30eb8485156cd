(** Randomized fault {e sequences} with shrinking.

    A fault sequence is a replayable program of corruptions — design
    text faults (including structural grafts), SDC faults, Liberty
    corruption, byte-level fuzzing and a sabotaged late phase — applied
    in order to a {!corpus}.
    Sequences are the unit the property-based harness generates,
    replays and {e minimizes}: when a sweep finds a crash or an oracle
    violation, {!minimize} (or a qcheck shrinker built on {!shrink})
    reduces the sequence to a locally minimal reproducer, and
    {!to_string} prints it as a one-line seed + fault list that
    {!of_string} (and the [css_fuzz --replay] CLI) replays exactly.

    Replay determinism does not depend on position: every step carries
    its own [salt], fixed at generation time, and draws its randomness
    from [Rng.create (seed lxor mix salt)] alone. Removing a step during
    shrinking therefore does not perturb the corruptions the surviving
    steps perform — the invariant that makes shrinking sound. *)

(** One corruption. *)
type op =
  | Netlist of Mutator.fault  (** corrupt the serialized design *)
  | Sdc of Mutator.sdc_fault  (** corrupt the constraint text *)
  | Lib of Mutator.lib_fault  (** corrupt the cell library *)
  | Fuzz_netlist of int  (** [n] byte-level ops on the design text *)
  | Fuzz_sdc of int  (** [n] byte-level ops on the SDC text *)
  | Sabotage_late
      (** at run time, every late phase ends with {!push_ffs_off_die},
          so a rollback-guarded flow rolls back *)

type step = {
  salt : int;  (** per-step RNG salt, fixed at generation time *)
  op : op;
}

type t = {
  seed : int;  (** base seed; combined with each step's salt *)
  steps : step list;
}

(** What a sequence corrupts: the three ingest artifacts, and whether
    the flow's late phases are sabotaged. *)
type corpus = {
  design_text : string;
  sdc_text : string;
  library : Css_liberty.Library.t;
  sabotage_late : bool;
}

(** [push_ffs_off_die d] moves every flip-flop 5e5 DBU right, off the
    die: wire delays explode, so the phase it ends scores worse than
    the run's start. *)
val push_ffs_off_die : Css_netlist.Design.t -> unit

(** [gen ?max_len rng] draws a sequence of 1..[max_len] (default 6)
    steps, each with a fresh salt. *)
val gen : ?max_len:int -> Css_util.Rng.t -> t

(** [apply t corpus] runs every step in order and returns the corrupted
    corpus plus the number of steps whose corruption reported
    [`Applied]. *)
val apply : t -> corpus -> corpus * int

(** {1 Shrinking} *)

(** [shrink t] enumerates strictly smaller candidates, largest
    reductions first: chunk removals (halves, quarters, ... single
    steps), then byte-op count halvings. Suitable directly as a qcheck
    shrinker ([QCheck.Iter] adapts a [Seq.t]). *)
val shrink : t -> t Seq.t

(** [minimize ?max_rounds ?deadline_seconds fails t] greedily walks
    {!shrink} while [fails] keeps returning [true] (i.e. the candidate
    still exhibits the failure) and returns a locally minimal failing
    sequence. [fails t] itself must hold. [max_rounds] (default 400)
    bounds the number of accepted shrink steps; [deadline_seconds]
    bounds total wall clock — each candidate trial replays a whole
    pipeline, so an unbounded shrink of a slow failure can dominate a
    fuzz run. On expiry the best sequence found so far is returned. *)
val minimize : ?max_rounds:int -> ?deadline_seconds:float -> (t -> bool) -> t -> t

(** {!minimize_timed}'s outcome, for callers that must report whether
    the reproducer is known-minimal (the fuzz CLI's [shrink_timeout]
    field). *)
type minimize_result = {
  minimized : t;
  shrink_rounds : int;  (** accepted shrink steps *)
  shrink_timeout : bool;
      (** the wall-clock deadline fired before a shrink fixpoint —
          [minimized] still fails, but smaller reproducers may exist *)
}

(** [minimize_timed ?max_rounds ?deadline_seconds fails t] is
    {!minimize} with the bound-hit outcome reported. *)
val minimize_timed :
  ?max_rounds:int -> ?deadline_seconds:float -> (t -> bool) -> t -> minimize_result

(** {1 Replayable rendering} *)

(** [to_string t] is the one-line reproducer, e.g.
    ["seed=42 steps=netlist:drop-net@117,fuzz-sdc:8@3,lib:lib-no-ff@9"]. *)
val to_string : t -> string

(** [of_string s] parses {!to_string}'s rendering back. *)
val of_string : string -> (t, string) result
