(** Fault injection for the robustness test harness.

    Each {!fault} is a deterministic corruption of a serialized design
    ({!Css_netlist.Io} format); each {!sdc_fault} corrupts SDC constraint
    text; each {!lib_fault} corrupts a cell library in memory. The
    harness ([test/test_faults.ml], [test/test_differential.ml], the
    [css_fuzz] binary) feeds the corrupted artifacts back through the
    result-based parsers, {!Css_liberty.Library.validate},
    {!Css_netlist.Validate} and the flow and asserts graceful
    degradation: a typed diagnostic or a repaired run, never an unhandled
    exception.

    Corruptions draw positions from the given {!Css_util.Rng.t}, so a
    seed pins the exact mutation. Every corruption reports an {!outcome}:
    [`Noop] means the fault found no target (e.g. [Drop_net] on a design
    with no nets) and the text is returned unchanged — exhaustive sweeps
    check the outcome so a fault that tested nothing fails loudly instead
    of silently passing. *)

(** Did the corruption actually edit its input? *)
type outcome =
  [ `Applied  (** the fault found a target and changed the artifact *)
  | `Noop  (** no target; the artifact is returned unchanged *)
  ]

(** One corruption kind for serialized designs. The first thirteen are
    line-level text faults; the last four are {e structural} faults that
    graft degenerate subcircuits onto the netlist (exercising
    {!Css_netlist.Validate}'s repair machinery rather than the parser). *)
type fault =
  | Truncate  (** cut the text mid-line *)
  | Drop_header  (** remove the [design ... period ...] line *)
  | Drop_die  (** remove the [die ...] line *)
  | Drop_net  (** remove one random [net] line (dangling pins) *)
  | Ghost_ref  (** add a sink referencing a nonexistent cell *)
  | Unknown_master  (** re-bind one cell to a master the library lacks *)
  | Corrupt_number  (** replace one coordinate with a non-number *)
  | Nan_position  (** replace one coordinate with [nan] *)
  | Inf_latency  (** give one flip-flop an infinite scheduled latency *)
  | Negative_period  (** make the clock period negative *)
  | Inverted_bounds  (** add a latency window with [lo > hi] *)
  | Duplicate_cell  (** repeat one [cell] line verbatim *)
  | Garbage_line  (** insert an unrecognizable line *)
  | Split_clock_domain
      (** re-clock one flip-flop onto a freshly grafted LCB whose own
          clock input is unconnected — a second, orphaned clock domain *)
  | Disconnect_subgraph
      (** graft a sequential island (two unclocked flip-flops around a
          gate) reachable from no port and no clock *)
  | Comb_loop  (** graft a two-inverter combinational cycle *)
  | Fanout_explosion
      (** attach tens of freshly grafted gate inputs to one net *)

(** Every design fault, for exhaustive sweeps. *)
val all : fault list

(** Stable display name, e.g. ["drop-net"]. *)
val name : fault -> string

(** [of_name s] inverts {!name} — used to replay printed reproducers. *)
val of_name : string -> fault option

(** [corrupt fault rng text] is the corrupted text and whether the fault
    found a target. *)
val corrupt : fault -> Css_util.Rng.t -> string -> string * outcome

(** One corruption kind for SDC text. *)
type sdc_fault =
  | Sdc_unknown_command  (** a near-miss command name (typo) *)
  | Sdc_bad_number  (** a non-numeric argument *)
  | Sdc_nonfinite_number  (** an infinite argument *)
  | Sdc_unknown_ff  (** bounds for a flip-flop that does not exist *)
  | Sdc_period_mismatch  (** a [create_clock] period unlike any design's *)
  | Sdc_inverted_bounds  (** swap an existing window's lo/hi *)

val all_sdc : sdc_fault list
val sdc_name : sdc_fault -> string
val sdc_of_name : string -> sdc_fault option

(** [corrupt_sdc fault rng text] is the corrupted text (appended or
    edited in place) and the outcome. *)
val corrupt_sdc : sdc_fault -> Css_util.Rng.t -> string -> string * outcome

(** {1 Byte-level fuzzing}

    Grammar-blind corruption of the parser front-ends: random byte
    flips, span deletions/duplications/insertions and truncations. The
    parsers ({!Css_netlist.Io.of_string}, {!Css_netlist.Sdc.parse}) must
    return a typed [result] on {e any} byte string — this is the fuzzer
    that checks it. *)

(** [fuzz_bytes ?ops rng text] applies [ops] (default 8) random byte
    operations. [`Noop] only when [text] is empty. *)
val fuzz_bytes : ?ops:int -> Css_util.Rng.t -> string -> string * outcome

(** {1 Liberty-model corruption}

    In-memory corruption of a {!Css_liberty.Library.t} — the stand-in
    for ingesting a damaged [.lib] file. Every fault below is detected
    by {!Css_liberty.Library.validate} with a stable [LIB-*] code. *)

type lib_fault =
  | Lib_no_ff  (** drop every sequential cell ([LIB-001]) *)
  | Lib_no_lcb  (** drop every clock buffer ([LIB-002]) *)
  | Lib_nan_cap  (** NaN input capacitance ([LIB-003]) *)
  | Lib_negative_drive  (** negative drive resistance ([LIB-003]) *)
  | Lib_nan_ff_params  (** NaN setup/hold/clk-to-q ([LIB-004]) *)
  | Lib_nan_insertion  (** non-finite LCB insertion delay ([LIB-004]) *)
  | Lib_orphan_arc  (** timing arc from a pin the cell lacks ([LIB-005]) *)
  | Lib_poison_model  (** delay model evaluating to NaN ([LIB-006]) *)
  | Lib_no_ckq_arc  (** flip-flop stripped of its arcs ([LIB-007]) *)
  | Lib_negative_area  (** non-positive cell area ([LIB-008]) *)

val all_lib : lib_fault list
val lib_name : lib_fault -> string
val lib_of_name : string -> lib_fault option

(** [corrupt_library fault rng lib] is a corrupted copy of [lib] (the
    input library is never mutated) and the outcome. *)
val corrupt_library :
  lib_fault -> Css_util.Rng.t -> Css_liberty.Library.t -> Css_liberty.Library.t * outcome
