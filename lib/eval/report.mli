(** Human-readable timing reports: slack histograms and path listings.

    Shared by the [report_timing] binary, the benchmark harness and any
    flow that wants to narrate its progress. *)

module Histogram : sig
  type t

  (** [of_values ?edges values] buckets [values] between consecutive
      [edges] (ascending; open-ended buckets are added on both sides).
      The default edges suit slack distributions in ps. *)
  val of_values : ?edges:float list -> float list -> t

  (** [counts h] is the [(lo, hi, count)] list, ascending. *)
  val counts : t -> (float * float * int) list

  (** [render h] draws an ASCII bar chart, one line per bucket. *)
  val render : t -> string
end

(** [timing_summary timer] is a multi-line report: WNS/TNS and violation
    counts per corner plus both histograms. *)
val timing_summary : Css_sta.Timer.t -> string

(** [worst_paths_report timer corner ~endpoints ~paths_per_endpoint] lists
    the most critical paths pin by pin. *)
val worst_paths_report :
  Css_sta.Timer.t -> Css_sta.Timer.corner -> endpoints:int -> paths_per_endpoint:int -> string
