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
    primary ports: the part before a reference's first [:] names the
    cell, or is [port], and the rest names the pin or the port (a cell
    named [port] cannot be referenced). Loading requires the same cell
    library the design was built against (masters are referenced by
    name).

    Lines end at ['\n'] and are numbered from 1, blank ones included;
    a text ending in ['\n'] ends with an empty line. Each line is
    trimmed at both ends of [String.trim]'s whitespace ([' '], ['\t'],
    ['\r'], ['\012']), so CRLF text reads as LF text. A trimmed line
    that is empty or starts with [#] is skipped; a [#] later in a line
    is an ordinary character. Fields are separated by runs of [' ']
    alone: a tab inside a line belongs to the field around it. Numbers
    are whatever [float_of_string] accepts ([1_000], [0x1p3], [inf],
    [-0], ...). The reader is one pass over the text: fields are byte
    ranges, and names are looked up where they lie.

    Malformed input never escapes as a raw exception: the primary entry
    points ({!of_string}, {!load}) return [result]s carrying
    severity-tagged {!Css_util.Diag.t} diagnostics (codes
    [IO-000..IO-013], catalogued in [docs/ROBUSTNESS.md]); the [*_exn]
    convenience wrappers re-raise the first error as [Failure] with the
    diagnostic's one-line rendering. *)

(** [float_to_string x] is the shortest decimal form that parses back
    ([float_of_string]) to the exact same float — the printer behind
    every float this format emits. Exposed for other bit-exact
    serializers (the flow's durable checkpoints). Non-finite values
    print as ["inf"]/["-inf"]/["nan"], which [float_of_string] also
    round-trips. *)
val float_to_string : float -> string

(** [save t path] writes the design. *)
val save : Design.t -> string -> unit

(** [to_string t] is the serialized form. *)
val to_string : Design.t -> string

(** {1 Line edits}

    {!to_string} writes one [cell] line per cell and one [net] line per
    net, each in id order (every net has a driver), then one [latency]
    line per cell with a non-zero scheduled latency and one [bounds]
    line per flip-flop with a non-default window, both in cell-id
    order. A durable session's checkpoint journal records a design as
    the current lines of the entities it changed, written by the line
    functions below (the ones {!to_string} writes with); {!apply_lines}
    replays them onto the design parsed from the base, so the replayed
    design prints byte for byte as the edited one. *)

type edit =
  | Cell_line of Design.cell_id * string  (** the cell's new [cell] line *)
  | Net_line of Design.net_id * string  (** the net's new [net] line *)
  | Latency_line of Design.cell_id * string option
      (** the cell's [latency] line; [None] for a zero latency *)
  | Bounds_line of Design.cell_id * string option
      (** the flip-flop's [bounds] line; [None] for the default window *)

val cell_line : Design.t -> Design.cell_id -> string
val net_line : Design.t -> Design.net_id -> string
val latency_line : Design.t -> Design.cell_id -> string option
val bounds_line : Design.t -> Design.cell_id -> string option

(** [apply_lines d edits] applies [edits] in order to the
    entities of [d] they address, through [d]'s mutators: a [cell] line
    swaps the master and moves the cell, a [net] line sets the sink list
    in its order ({!Design.set_net_sinks}), a [latency] line sets the
    scheduled latency ([None]: [0.0]), a [bounds] line sets the window
    ([None]: the default). Each line parses as {!of_string} parses it,
    with its diagnostic codes; an id [d] does not hold, a line naming
    another entity than its id's, or a net line with another driver is
    [IO-013]. An edit line is split at [' '] as it stands: nothing
    is trimmed and no comment is skipped. The cell and port
    name tables pin references need are built once per call, at its
    first net line. After the last edit,
    every sink of a net set, or of a net one of its sinks came from,
    must point back at that net ([IO-012] otherwise). The first error
    stops the replay, leaving [d] partly edited; nothing raises. *)
val apply_lines : Design.t -> edit list -> (unit, Css_util.Diag.t) result

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
