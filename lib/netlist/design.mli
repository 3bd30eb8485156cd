(** The design database: cells, pins, nets, ports, placement, clock tree.

    All entities are referenced by dense integer ids so the timing engine
    can use flat arrays. Cells are instantiated from a
    {!Css_liberty.Library.t} master; flip-flop clock pins connect to local
    clock buffer (LCB) output nets, forming the two-level clock tree the
    ICCAD-2015 contest uses: clock root port -> LCBs -> FFs.

    {b Storage layout.} Internally the database is a struct of arrays:
    every attribute is a dense column indexed by the entity id, int
    columns use [-1] as the "none" sentinel and float columns are flat
    [float array]s. Ids are assigned in construction order and are never
    reused or compacted, so they are stable for the lifetime of the
    design and survive serialization round-trips ({!Css_netlist.Io}
    writes entities in id order). The sentinel-flavoured accessors
    ([pin_net_id], [net_driver_id], [pin_cell_id], ...) are
    allocation-free counterparts of the option-returning ones, intended
    for timing-engine inner loops; see [docs/PERFORMANCE.md] for the
    layout contract.

    The clock network is modelled analytically rather than as timing-graph
    arcs: the physical clock latency of a flip-flop is the LCB insertion
    delay plus the Elmore delay of the LCB-to-FF branch
    ({!physical_clock_latency}). Clock skew scheduling explores *virtual*
    latencies on top via {!set_scheduled_latency}; the optimization phase
    then re-connects FFs to realize them physically. *)

type cell_id = int
(** Dense cell-instance index in [0, num_cells). *)

type pin_id = int
(** Dense pin index in [0, num_pins). A cell's pins are contiguous, in
    the master's inputs-then-outputs declaration order. *)

type net_id = int
(** Dense net index in [0, num_nets). *)

type port_id = int
(** Dense primary-port index in [0, num_ports). *)

type port_dir =
  | In
  | Out

type pin_owner =
  | Cell_pin of cell_id * string  (** instance id and master pin name *)
  | Port_pin of port_id

type t

(** {1 Construction} *)

(** [create ~name ~library ~die ~clock_period ()] is an empty design. *)
val create :
  name:string ->
  library:Css_liberty.Library.t ->
  die:Css_geometry.Rect.t ->
  clock_period:float ->
  unit ->
  t

(** [add_port t ~name ~dir ~pos] creates a primary port and its pin.
    O(1) amortized. *)
val add_port : t -> name:string -> dir:port_dir -> pos:Css_geometry.Point.t -> port_id

(** [add_cell t ~name ~master ~pos] instantiates [master] (a library cell
    name) and creates its pins. O(#pins) amortized.
    @raise Not_found if [master] is not in the library. *)
val add_cell : t -> name:string -> master:string -> pos:Css_geometry.Point.t -> cell_id

(** [add_net t ~name ~driver ~sinks] connects a driver pin to sink pins.
    O(#sinks).
    @raise Invalid_argument if any pin is already connected or the driver
    is an input-type pin. *)
val add_net : t -> name:string -> driver:pin_id -> sinks:pin_id list -> net_id

(** [net_add_sink t n p] attaches the unconnected input-type pin [p] to
    the existing net [n] — used when new clock buffers are inserted into
    a built design. O(1) amortized.
    @raise Invalid_argument if [p] is already connected or is a signal
    source. *)
val net_add_sink : t -> net_id -> pin_id -> unit

(** [set_net_sinks t n sinks] makes [sinks], in this order, the sink
    list of net [n]: a recorded net line replayed onto the design. A
    pin that leaves [n] is detached only while it still points at [n],
    and a joining pin, on no net or on another one, now points at [n];
    so the two lines of a pin moving between two nets leave it on its
    new net in either order of application. Marks [n] in the change set
    and [n] and any net a pin was taken from in the per-net columns.
    O(old fanout + new fanout).
    @raise Invalid_argument if a sink is a signal source. *)
val set_net_sinks : t -> net_id -> pin_id list -> unit

(** [set_clock_root t port] declares the clock source port. O(1). *)
val set_clock_root : t -> port_id -> unit

(** {1 Entity access}

    All single-entity accessors are O(1) column reads unless noted. *)

val name : t -> string
val library : t -> Css_liberty.Library.t
val die : t -> Css_geometry.Rect.t
val clock_period : t -> float
val num_cells : t -> int
val num_pins : t -> int
val num_nets : t -> int
val num_ports : t -> int
val cell_name : t -> cell_id -> string
val cell_master : t -> cell_id -> Css_liberty.Cell.t

(** [cell_pos t c] is the instance's current placement. Allocates a
    point; inner loops should read {!cell_x} / {!cell_y} instead. *)
val cell_pos : t -> cell_id -> Css_geometry.Point.t

(** [cell_x t c] / [cell_y t c] are the placement coordinates as unboxed
    floats. O(1), allocation-free. *)
val cell_x : t -> cell_id -> float

val cell_y : t -> cell_id -> float

(** [positions t] copies the placement columns: the x and the y of
    every cell, indexed by cell id. O(num_cells), no point per cell. *)
val positions : t -> float array * float array

(** [cell_orig_pos t c] is the placement position at construction time,
    the reference for the max-displacement constraint. *)
val cell_orig_pos : t -> cell_id -> Css_geometry.Point.t

(** [cell_orig_x t c] / [cell_orig_y t c] are the anchor's coordinates
    as unboxed floats. O(1), allocation-free. *)
val cell_orig_x : t -> cell_id -> float

val cell_orig_y : t -> cell_id -> float

(** [set_cell_orig_pos t c pos] rewrites the max-displacement anchor. A
    parsed design anchors at its parsed positions; a resumed flow run
    restores the anchors the interrupted run started from (the flow's
    durable checkpoints persist them) so movement legality is judged
    against the same reference. *)
val set_cell_orig_pos : t -> cell_id -> Css_geometry.Point.t -> unit

(** [move_cell t c pos] re-places [c]; wire delays will reflect the new
    location on the next timing propagation. O(1). *)
val move_cell : t -> cell_id -> Css_geometry.Point.t -> unit

(** [swap_master t c master] re-binds instance [c] to a different library
    cell with the same pin interface (gate sizing). Connectivity and pin
    ids are untouched; use {!Css_sta.Timer.resize_cell} to keep a live
    timer consistent.
    @raise Not_found if [master] is not in the library.
    @raise Invalid_argument if the interfaces differ. *)
val swap_master : t -> cell_id -> string -> unit

(** [cell_pin t c pin_name] is the pin id of [c]'s pin named [pin_name].
    O(#pins of [c]) — a scan over the cell's contiguous pin range
    comparing interned name tokens.
    @raise Not_found if absent. *)
val cell_pin : t -> cell_id -> string -> pin_id

(** [cell_pin_of_token t c tok] is the pin of [c] whose master pin name
    has the token [tok] ({!pin_name_token}), or [-1]: {!cell_pin}
    without the name lookup. O(#pins of [c]), allocation-free. *)
val cell_pin_of_token : t -> cell_id -> int -> pin_id

val port_name : t -> port_id -> string
val port_dir : t -> port_id -> port_dir
val port_pos : t -> port_id -> Css_geometry.Point.t
val port_pin : t -> port_id -> pin_id

(** [pin_owner t p] classifies the pin's owner. Allocates the returned
    constructor; inner loops should branch on {!pin_cell_id} /
    {!pin_port_id} instead. *)
val pin_owner : t -> pin_id -> pin_owner

(** [pin_cell_id t p] is the owning cell, or [-1] for a port pin.
    O(1), allocation-free. *)
val pin_cell_id : t -> pin_id -> cell_id

(** [pin_port_id t p] is the owning port, or [-1] for a cell pin.
    O(1), allocation-free. *)
val pin_port_id : t -> pin_id -> port_id

(** [pin_name_id t p] is the interned token of the pin's master pin name
    ([-1] for port pins). Tokens are design-local; compare against
    {!pin_name_token}. O(1), allocation-free. *)
val pin_name_id : t -> pin_id -> int

(** [pin_name_token t name] is the interned token of [name], or [-1] if
    no pin of the design bears it. O(1) expected (one hash lookup). *)
val pin_name_token : t -> string -> int

(** [pin_net t p] is the net connected to [p], if any. Allocates the
    option; inner loops should use {!pin_net_id}. *)
val pin_net : t -> pin_id -> net_id option

(** [pin_net_id t p] is the connected net, or [-1] when unconnected.
    O(1), allocation-free. *)
val pin_net_id : t -> pin_id -> net_id

(** [pin_pos t p] is the pin's physical location (its cell's or port's).
    Allocates a point; inner loops should read {!pin_x} / {!pin_y}. *)
val pin_pos : t -> pin_id -> Css_geometry.Point.t

(** [pin_x t p] / [pin_y t p] are the pin's coordinates as unboxed
    floats. O(1), allocation-free. *)
val pin_x : t -> pin_id -> float

val pin_y : t -> pin_id -> float

(** [pin_is_output t p] is true for cell output pins and input-port pins
    (the signal sources of their nets). O(1), allocation-free. *)
val pin_is_output : t -> pin_id -> bool

val net_name : t -> net_id -> string

(** [net_driver t n] is the driver pin, if any. Allocates the option;
    inner loops should use {!net_driver_id}. *)
val net_driver : t -> net_id -> pin_id option

(** [net_driver_id t n] is the driver pin, or [-1] when the net has none.
    O(1), allocation-free. *)
val net_driver_id : t -> net_id -> pin_id

(** [net_sinks t n] lists the sink pins (unspecified order after
    reconnection). Allocates the list — iteration-heavy callers should
    use {!iter_net_sinks} or {!net_sink}. O(fanout). *)
val net_sinks : t -> net_id -> pin_id list

val net_fanout : t -> net_id -> int

(** [net_sink t n i] is the [i]-th sink pin, [0 <= i < net_fanout t n].
    O(1), allocation-free.
    @raise Invalid_argument when [i] is out of range. *)
val net_sink : t -> net_id -> int -> pin_id

(** [iter_net_sinks t n f] applies [f] to every sink pin without building
    a list. O(fanout), allocation-free apart from the closure. *)
val iter_net_sinks : t -> net_id -> (pin_id -> unit) -> unit

(** {1 Iteration} *)

val iter_cells : t -> (cell_id -> unit) -> unit
val iter_nets : t -> (net_id -> unit) -> unit
val iter_ports : t -> (port_id -> unit) -> unit

(** {1 Sequential elements and the clock tree} *)

(** [is_ff t c] / [is_lcb t c] classify an instance by its master.
    O(1) — reads the cached role column, not the master record. *)
val is_ff : t -> cell_id -> bool

val is_lcb : t -> cell_id -> bool

(** [ffs t] are all flip-flop instance ids in ascending order. O(1)
    after the first call per topology change (cached). *)
val ffs : t -> cell_id array

(** [lcbs t] are all LCB instance ids in ascending order. Cached like
    {!ffs}. *)
val lcbs : t -> cell_id array

(** [ff_index t c] is the dense ordinal of [c] within {!ffs} ([-1] for
    non-flip-flops) — the id space sequential-graph vertices use. O(1)
    after the first call per topology change. *)
val ff_index : t -> cell_id -> int

val clock_root : t -> port_id option

(** [clock_root_id t] is the clock root port, or [-1] when undeclared.
    O(1), allocation-free. *)
val clock_root_id : t -> port_id

(** [lcb_of_ff t ff] is the LCB currently driving [ff]'s clock pin. O(#pins of [ff]).
    @raise Not_found if the FF's CK pin is unconnected or not driven by an
    LCB. *)
val lcb_of_ff : t -> cell_id -> cell_id

(** [ffs_of_lcb t lcb] are the FFs on the LCB's output net. O(fanout). *)
val ffs_of_lcb : t -> cell_id -> cell_id list

(** [lcb_fanout t lcb] is the number of sinks on the LCB output net;
    0 when the LCB drives no net at all (a degenerate but survivable
    state lenient-recovery parsing can produce). *)
val lcb_fanout : t -> cell_id -> int

(** [reconnect_ff_to_lcb t ~ff ~lcb] moves the FF's CK pin from its current
    clock net to [lcb]'s output net. The physical clock latency changes
    accordingly. O(old fanout) for the swap-remove. Pin, net and cell ids
    are untouched — only net membership changes.
    @raise Invalid_argument if [lcb] is not an LCB or has no output net. *)
val reconnect_ff_to_lcb : t -> ff:cell_id -> lcb:cell_id -> unit

(** [physical_clock_latency t ff] is the clock arrival at the FF's CK pin:
    LCB insertion delay plus Elmore delay of the LCB-to-FF branch. FFs with
    an unconnected clock see latency 0. O(#pins of [ff]). *)
val physical_clock_latency : t -> cell_id -> float

(** [scheduled_latency t ff] is the virtual latency CSS has assigned on top
    of the physical one (initially 0). O(1), allocation-free. *)
val scheduled_latency : t -> cell_id -> float

val set_scheduled_latency : t -> cell_id -> float -> unit

(** [clock_latency t ff] is [physical_clock_latency + scheduled_latency],
    the value the timer uses. *)
val clock_latency : t -> cell_id -> float

(** {1 Contest limits}

    The ICCAD-2015 evaluator's rule set, in one place: the passes that
    edit the clock network and the placement (reconnection, CTS
    guidance, cell movement) and the evaluator that scores them all
    read these values, so a pass and its judge cannot disagree. No
    configuration or SDC command overrides them. *)

(** Most sinks an LCB may drive: 50. *)
val lcb_fanout_limit : int

(** Per-cell displacement budget from the original placement: 400 DBU
    (Manhattan). *)
val max_displacement : float

(** Latency targets at or below this (0.25 ps) keep their flip-flop's
    current LCB: neither reconnection nor CTS guidance acts on them. *)
val min_realized_target : float

(** {1 Clock latency bounds (the paper's Eq. 5)}

    Designers may pin a flip-flop's total clock latency into a window —
    e.g. flops talking to an external interface, or regions where the
    clock tree budget is fixed. The scheduler folds the upper bound into
    its per-iteration caps; the evaluator reports violations of either
    bound. *)

(** [set_latency_bounds t ff ~lo ~hi] constrains [ff]'s total clock
    latency to [\[lo, hi\]].
    @raise Invalid_argument if [lo > hi] or either is negative. *)
val set_latency_bounds : t -> cell_id -> lo:float -> hi:float -> unit

(** [latency_bounds t ff] is the window, [(0., infinity)] by default.
    O(1) expected — bounds live in a sparse hash table, not a column. *)
val latency_bounds : t -> cell_id -> float * float

(** [latency_hi t ff] is the window's upper bound, [infinity] when
    unset — {!latency_bounds} without the option and the tuple, for the
    scheduler's per-iteration cap reads. O(1) expected. *)
val latency_hi : t -> cell_id -> float

(** [latency_outside t ff l ~tol] is true when [l] lies below the
    window's lower bound by more than [tol] or above its upper bound by
    more than [tol] — {!latency_bounds}'s test without the option and
    the tuple, for the evaluator's audit. O(1) expected. *)
val latency_outside : t -> cell_id -> float -> tol:float -> bool

(** [clear_latency_bounds t ff] restores the default window. *)
val clear_latency_bounds : t -> cell_id -> unit

(** {1 The change set}

    The mutators mark what they write, so a consumer that persists the
    design (the flow's journal) reads the touched ids instead of
    comparing every cell and net against a copy. One byte of kind bits
    per cell and per net and a stack of the touched ids are sized at
    each {!take_changes}, so marking is O(1) and allocates nothing. The
    set covers the ids the design had at the last {!take_changes}: a
    design never taken from marks nothing and pays one comparison per
    write. {!move_cell} and
    {!swap_master} mark the cell's line, {!set_scheduled_latency} the
    latency, {!set_latency_bounds} and {!clear_latency_bounds} the
    bounds, {!set_cell_orig_pos} the anchor; {!reconnect_ff_to_lcb}
    marks the old and the new clock net, {!net_add_sink} and
    {!set_net_sinks} its net. A
    write of the bits (or master) already held marks nothing; a write
    undone later stays marked. [add_*] mark nothing, nor do ids added
    since the last take: a consumer that sees the design grow starts
    over from the whole design. *)

type changes = {
  cells : cell_id array;  (** position or master *)
  latencies : cell_id array;
  bounds : cell_id array;
  anchors : cell_id array;
  nets : net_id array;  (** sink list *)
}

(** [take_changes t] is every id marked since the previous call, each
    kind ascending, and clears the set. O(k log k) for k ids touched
    (one sort per entity, filtered per kind), plus O(n) when the design
    grew to n ids since the previous call. *)
val take_changes : t -> changes

(** {1 Metrics and validation} *)

(** [net_hpwl t n] is the half-perimeter wire length of one net: bitwise
    {!Css_geometry.Hpwl.of_points} of its driver, then its sinks.
    O(fanout), allocation-free. *)
val net_hpwl : t -> net_id -> float

(** [total_hpwl t] sums HPWL over all nets (clock nets included, as in the
    contest evaluator), bitwise the fold of {!net_hpwl} in net order.

    The design keeps two per-net columns, each net's HPWL and whether
    {!check} reports on it, and one stale byte per net, apart from the
    change set and never emptied by {!take_changes}: {!move_cell} marks
    the nets on the cell's pins, {!reconnect_ff_to_lcb} the old and the
    new clock net, {!net_add_sink} its net, {!set_net_sinks} its net and
    any net it took a pin from. [total_hpwl] and {!check}
    first re-measure
    the marked nets and the nets added since the previous call, so a
    call costs O(num_nets) plus the pins of the nets re-measured. The
    first call measures every net; construction and parsing measure
    nothing. *)
val total_hpwl : t -> float

(** [check t] returns human-readable consistency violations: dangling pins
    on nets, nets without drivers, FFs without clocks, LCBs driven by a
    non-clock source. Empty means well-formed. Nets are read off the
    per-net column (see {!total_hpwl}), then every FF and LCB is
    scanned: O(num_nets + FFs + LCBs) plus the re-measured nets, with
    no hashing and no allocation unless it reports. *)
val check : t -> string list
