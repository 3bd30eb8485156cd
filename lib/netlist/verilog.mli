(** Structural Verilog and DEF-style placement export.

    The textual {!Io} format is this library's native interchange; for
    hand-off to other tools the same design can be emitted as a gate-level
    structural Verilog module plus a minimal DEF placement file
    (COMPONENTS with PLACED coordinates and the clock-net routing left to
    the consumer). Export only — designs are not read back from Verilog. *)

(** [to_verilog design] is the structural netlist: one module named after
    the design, ports in declaration order, one wire per internal net, and
    one instantiation per cell with named port connections. *)
val to_verilog : Design.t -> string

(** [to_def design] is a minimal DEF: DESIGN/UNITS/DIEAREA header and a
    COMPONENTS section placing every instance at its current location. *)
val to_def : Design.t -> string

(** [save_verilog design path] / [save_def design path] write the files. *)
val save_verilog : Design.t -> string -> unit

val save_def : Design.t -> string -> unit
