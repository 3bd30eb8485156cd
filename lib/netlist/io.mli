(** Plain-text save/load of designs.

    The format is line-oriented and self-describing:

    {v
    design <name> period <T>
    die <lx> <ly> <hx> <hy>
    port <name> in|out <x> <y>
    cell <name> <master> <x> <y>
    net <name> <ref> <ref> ...          # first ref is the driver
    clockroot <portname>
    latency <cellname> <ps>             # scheduled (virtual) latency
    bounds <cellname> <lo> <hi>         # clock latency window
    v}

    where [<ref>] is [cell:pin] for instance pins and [port:<name>] for
    primary ports. Loading requires the same cell library the design was
    built against (masters are referenced by name).

    Malformed input never escapes as a raw exception: the primary entry
    points ({!of_string}, {!load}) return [result]s carrying
    severity-tagged {!Css_util.Diag.t} diagnostics (codes
    [IO-000..IO-012], catalogued in [docs/ROBUSTNESS.md]); the [*_exn]
    convenience wrappers re-raise the first error as [Failure] with the
    diagnostic's one-line rendering. *)

(** [float_to_string x] is the shortest decimal form that parses back
    ([float_of_string]) to the exact same float — the printer behind
    every float this format emits. Exposed for other bit-exact
    serializers (the flow's durable checkpoints). Non-finite values
    print as ["inf"]/["-inf"]/["nan"], which [float_of_string] also
    round-trips. *)
val float_to_string : float -> string

(** A float-text memo for writers that serialize the same design over
    and over (a durable session rewrites its checkpoint after every
    phase, and between two writes only a few cells move).

    The memo has one slot per cell coordinate, [2·cell + axis]. A slot
    holds the bit pattern of the last float written through it and that
    float's {!float_to_string} text. The contract is exact text: the
    stored text is reused only when [Int64.bits_of_float] of the new
    value equals the stored bits, never on [=] ([0.0 = -0.0], yet they
    print ["0"] and ["-0"]; [nan <> nan]). Every other value is a miss
    and goes through {!float_to_string}, so memoized output is
    byte-identical to unmemoized output by construction. Slots grow on
    demand when the design gains cells. *)
module Memo : sig
  type t

  (** [create ()] is an empty memo: every first write to a slot misses. *)
  val create : unit -> t

  (** [misses m] counts the floats [m] has formatted since [create]. *)
  val misses : t -> int

  (** [add_x m buf c x] appends the text of [x], the x coordinate of
      cell [c] (slot [2c]), to [buf]. *)
  val add_x : t -> Buffer.t -> Design.cell_id -> float -> unit

  (** [add_y m buf c y] is {!add_x} for the y coordinate (slot [2c+1]). *)
  val add_y : t -> Buffer.t -> Design.cell_id -> float -> unit
end

(** [save t path] writes the design. *)
val save : Design.t -> string -> unit

(** [to_string ?memo t] is the serialized form. Cell coordinates go
    through [memo] (default: a fresh one, so a plain call formats every
    float once); the text is the same whichever memo is passed. *)
val to_string : ?memo:Memo.t -> Design.t -> string

(** Recover-or-abort policy for malformed lines:
    - [Abort] (default): stop at the first error and return [Error].
    - [Recover]: skip the offending line, collect its diagnostic, and
      keep parsing; the parse succeeds if a design could be built at
      all, with the collected diagnostics attached. A missing design
      header is never recoverable. *)
type policy =
  | Abort
  | Recover

(** [of_string ?source ?policy ~library s] parses the serialized form.
    [source] names the input in diagnostics (e.g. the file path). On
    [Ok (design, diags)], [diags] are the collected warnings — and,
    under {!Recover}, the errors that were skipped over. *)
val of_string :
  ?source:string ->
  ?policy:policy ->
  library:Css_liberty.Library.t ->
  string ->
  (Design.t * Css_util.Diag.t list, Css_util.Diag.t list) result

(** [load ?policy ~library path] reads a design back; unreadable files
    become an [IO-000] diagnostic rather than [Sys_error]. *)
val load :
  ?policy:policy ->
  library:Css_liberty.Library.t ->
  string ->
  (Design.t * Css_util.Diag.t list, Css_util.Diag.t list) result

(** [load_exn ~library path] reads a design back.
    @raise Failure with a rendered diagnostic on malformed input. *)
val load_exn : library:Css_liberty.Library.t -> string -> Design.t

(** [of_string_exn ~library s] parses the serialized form.
    @raise Failure with a rendered diagnostic on malformed input. *)
val of_string_exn : library:Css_liberty.Library.t -> string -> Design.t
