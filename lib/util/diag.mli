(** Structured diagnostics for the ingest and validation layers.

    A diagnostic carries a severity, a stable machine-readable code
    (catalogued in [docs/ROBUSTNESS.md]), an optional source location,
    a human message and an optional hint (e.g. a nearest-name
    suggestion). Parsers and validators collect diagnostics into a
    {!collector} instead of aborting on the first problem, then either
    return them ([result]-based entry points) or raise {!Failed}
    (compatibility wrappers). *)

type severity =
  | Info
  | Warning
  | Error

type t = {
  severity : severity;
  code : string;  (** stable identifier, e.g. ["IO-004"] *)
  file : string option;  (** source file, when parsing from disk *)
  line : int option;  (** 1-based source line *)
  message : string;
  hint : string option;  (** suggested fix, e.g. ["did you mean ff12?"] *)
}

val error : ?file:string -> ?line:int -> ?hint:string -> code:string -> string -> t
val warning : ?file:string -> ?line:int -> ?hint:string -> code:string -> string -> t

val is_error : t -> bool

(** [has_errors ds] is true when any diagnostic is an {!Error}. *)
val has_errors : t list -> bool

(** [to_string d] is the canonical one-line rendering:
    ["error[IO-004] design.txt:12: unknown cell ghost (hint: ...)"].
    Location components are omitted when absent. *)
val to_string : t -> string

(** [Failed ds] is the typed failure raised by callers (e.g. the CLI)
    that turn a result-based [Error ds] ([Io.of_string], [Sdc.apply],
    ...) into an exception without flattening it to a string. [ds] is
    non-empty and contains at least one {!Error}. *)
exception Failed of t list

(** {1 Collectors} *)

type collector

val collector : unit -> collector

(** [emit c d] appends [d]. *)
val emit : collector -> t -> unit

(** [diags c] lists emitted diagnostics in emission order. *)
val diags : collector -> t list

(** [error_count c] counts emitted {!Error} diagnostics. *)
val error_count : collector -> int

(** {1 Name suggestions} *)

(** [did_you_mean name candidates] is a hint naming the candidate
    closest to [name] by Levenshtein distance, if one is plausibly a
    typo (distance at most [max 2 (length name / 3)]); ties break toward
    the earlier candidate. *)
val did_you_mean : string -> string list -> string option
