(* Arithmetic shared by the workloads: order statistics, the per-layer
   residual, quality gains, the failure tally and the result line. Pure,
   so the self-tests can pin every formula exactly. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Ledger.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  if Array.length xs = 0 then invalid_arg "Ledger.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* A tail percentile is only reported when at least this many samples
   lie beyond it; fewer make it one slow request's anecdote. *)
let min_beyond = 10

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. [None] when fewer than [min_beyond] samples
   lie strictly beyond that rank. *)
let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 || p <= 0.0 || p > 1.0 then None
  else
    (* the epsilon keeps 0.9 *. 100. = 90.000000000000014 at rank 90 *)
    let rank = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))) in
    if n - rank < min_beyond then None else Some (sorted xs).(rank - 1)

(* What the named layers leave unexplained of a measured wall time. *)
let residual ~wall layers = List.fold_left (fun acc (_, s) -> acc -. s) wall layers

let residual_share ~wall layers =
  if wall <= 0.0 then 0.0 else Float.abs (residual ~wall layers) /. wall

(* Improvement of a (non-positive) slack figure over its input value, in
   percent of the input. An input with nothing to fix counts as no gain. *)
let gain_pct ~before ~after = if before = 0.0 then 0.0 else 100.0 *. (1.0 -. (after /. before))

type tally = { attempted : int; failed : int; failures : string list }

let empty_tally = { attempted = 0; failed = 0; failures = [] }

(* [record t msgs] counts one operation; it failed when its check
   produced any message. *)
let record t msgs =
  {
    attempted = t.attempted + 1;
    failed = (if msgs = [] then t.failed else t.failed + 1);
    failures = List.rev_append msgs t.failures;
  }

let failed_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "Ledger.json_float: non-finite metric"

(* The machine-readable result: one JSON object on one line. *)
let result_line ~correct t metrics =
  let m =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float value) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct t.attempted t.failed (String.concat ", " m)
