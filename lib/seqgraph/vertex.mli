(** Sequential-graph vertices: flip-flops plus two supernodes.

    The paper's graph [G = (V, E', w)] has one vertex per flip-flop and
    two supernodes standing for all input and all output ports. Supernode
    latency is pinned at 0 — primary ports cannot be skewed.

    Vertex ids are dense ints: FF vertices occupy [0, #FFs) in the
    design's {!Css_netlist.Design.ffs} order, followed by the two
    supernodes. FF-to-vertex translation goes through the design's
    interned FF ordinal ({!Css_netlist.Design.ff_index}) — an array read,
    no hashing. *)

type t

type id = int
(** Dense vertex index in [0, num). *)

(** [of_design d] indexes all flip-flops of [d] and the two supernodes.
    O(#cells) on first use (builds the design's FF index). *)
val of_design : Css_netlist.Design.t -> t

(** [num t] is the vertex count: [#FFs + 2]. O(1). *)
val num : t -> int

(** [input_super t] / [output_super t] are the supernode ids. O(1). *)
val input_super : t -> id

val output_super : t -> id

(** [is_super t v] — two int compares. O(1). *)
val is_super : t -> id -> bool

(** [of_ff t ff] is the vertex of flip-flop instance [ff]. O(1).
    @raise Not_found if [ff] is not a flip-flop of the design. *)
val of_ff : t -> Css_netlist.Design.cell_id -> id

(** [ff_of t v] is the flip-flop behind [v], or [None] for supernodes.
    O(1); allocates the option. *)
val ff_of : t -> id -> Css_netlist.Design.cell_id option

(** [ff_id t v] is {!ff_of} without the option: the flip-flop behind
    [v], or [-1] for supernodes. O(1), allocation-free. *)
val ff_id : t -> id -> Css_netlist.Design.cell_id

(** [of_launcher t l] maps a timing-graph launcher to its vertex (input
    ports collapse onto the input supernode). O(1). *)
val of_launcher : t -> Css_sta.Graph.launcher -> id

(** [of_endpoint t e] maps a timing endpoint to its vertex (output ports
    collapse onto the output supernode). O(1). *)
val of_endpoint : t -> Css_sta.Graph.endpoint -> id

(** [name t design v] is a printable vertex name. *)
val name : t -> Css_netlist.Design.t -> id -> string
