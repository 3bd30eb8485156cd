(** A minimal self-contained JSON tree (the container has no yojson);
    the printer and parser round-trip ([of_string (to_string v) = v] for
    trees without non-finite floats).

    Hoisted out of [Obs] so the rest of [Css_util] ([Histo], [Regress]) can produce and consume JSON without depending on the
    observability context; [Obs.Json] is an alias of this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] prints compact JSON. Non-finite floats print as
    [null] (JSON has no representation for them). *)
val to_string : t -> string

(** [to_buffer b v] appends the compact form to [b]. *)
val to_buffer : Buffer.t -> t -> unit

(** [escape_to b s] appends [s] as a quoted, escaped JSON string. *)
val escape_to : Buffer.t -> string -> unit

(** [float_repr x] is the canonical textual form of a float: always
    re-parses as [Float] (decimal point or exponent forced), non-finite
    values print as [null]. *)
val float_repr : float -> string

(** [of_string s] parses one JSON value. Numbers without [.], [e] or
    leading [-0]-style fractions parse as [Int] when they fit.
    @raise Failure on malformed input. *)
val of_string : string -> t

(** [member name v] is the field [name] of object [v], if present. *)
val member : string -> t -> t option

(** [to_float v] coerces [Int]/[Float]. @raise Failure otherwise. *)
val to_float : t -> float

(** [write_file path emit] writes a file atomically: [emit] receives a
    channel for a temp file in the same directory, which is renamed
    over [path] only after [emit] returns and the channel is flushed.
    An interrupted run never leaves a truncated artifact. The temp file
    is removed if [emit] raises. *)
val write_file : string -> (out_channel -> unit) -> unit
