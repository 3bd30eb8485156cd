(* Log-bucketed latency/size histograms.

   Bucketing: 8 sub-buckets per octave (base-2), so every bucket spans
   a ratio of 2^(1/8) ~ 9% and any reported quantile is within ~4.5% of
   the true value. Index 0 collects non-positive observations; indices
   1..n_buckets-1 cover 2^-64 .. 2^64, clamped at both ends — wide
   enough for nanosecond timings and million-node cone sizes alike.

   [observe] is allocation-free (an array store, a flat-float-record
   store and an unboxed [log2]), so instrumented hot loops can observe
   unconditionally; the shared [dummy] sink absorbs observations from
   disabled contexts the way [Obs]'s dummy counter does. *)

let n_buckets = 1025 (* 1 underflow + 128 octaves * 8 sub-buckets *)
let mid = 512 (* bucket of values in [1, 2^(1/8)) *)

(* All-float record => flat representation: field stores don't box. *)
type acc = {
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type t = {
  counts : int array;
  acc : acc;
  mutable n : int;
}

let create () =
  { counts = Array.make n_buckets 0; acc = { sum = 0.0; mn = infinity; mx = neg_infinity }; n = 0 }

let dummy = create ()

let[@inline] bucket_of v =
  if v <= 0.0 || Float.is_nan v then 0
  else begin
    let i = mid + int_of_float (Float.floor (Float.log2 v *. 8.0)) in
    if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i
  end

(* Geometric lower edge / midpoint of bucket [i >= 1]. *)
let bucket_lo i = Float.pow 2.0 (float_of_int (i - mid) /. 8.0)
let bucket_mid i = Float.pow 2.0 ((float_of_int (i - mid) +. 0.5) /. 8.0)

(* [@inline] so [observe_int]'s [float_of_int] feeds straight into the
   bucket math without boxing an intermediate float *)
let[@inline] observe t v =
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  (* non-finite observations are counted in their bucket (0 for NaN,
     the clamp buckets for infinities) but kept out of the moments: one
     NaN would otherwise poison sum/mean forever, and JSON cannot carry
     non-finite numbers anyway *)
  if Float.is_finite v then begin
    let a = t.acc in
    a.sum <- a.sum +. v;
    if v < a.mn then a.mn <- v;
    if v > a.mx then a.mx <- v
  end

let observe_int t v = observe t (float_of_int v)
let count t = t.n
let sum t = t.acc.sum
let min_value t = if t.n = 0 then 0.0 else t.acc.mn
let max_value t = if t.n = 0 then 0.0 else t.acc.mx
let mean t = if t.n = 0 then 0.0 else t.acc.sum /. float_of_int t.n

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.n <- 0;
  t.acc.sum <- 0.0;
  t.acc.mn <- infinity;
  t.acc.mx <- neg_infinity

let quantile t q =
  if t.n = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target =
      let x = int_of_float (Float.ceil (q *. float_of_int t.n)) in
      if x < 1 then 1 else x
    in
    let rec go i cum =
      if i >= n_buckets then max_value t
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= target then
          if i = 0 then Float.min 0.0 (min_value t)
          else begin
            (* clamp the geometric midpoint into the observed range so a
               single-sample histogram reports the sample itself *)
            let v = bucket_mid i in
            Float.max (min_value t) (Float.min v (max_value t))
          end
        else go (i + 1) cum
      end
    in
    go 0 0
  end

let to_json t =
  let buckets =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := Json.List [ Json.Int i; Json.Int t.counts.(i) ] :: !acc
    done;
    !acc
  in
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("sum", Json.Float t.acc.sum);
      ("min", Json.Float (min_value t));
      ("max", Json.Float (max_value t));
      ("mean", Json.Float (mean t));
      ("p50", Json.Float (quantile t 0.50));
      ("p95", Json.Float (quantile t 0.95));
      ("p99", Json.Float (quantile t 0.99));
      ("buckets", Json.List buckets);
    ]

let of_json j =
  let t = create () in
  let geti name = match Json.member name j with Some (Json.Int i) -> i | _ -> 0 in
  let getf name = match Json.member name j with Some v -> Json.to_float v | None -> 0.0 in
  t.n <- geti "count";
  t.acc.sum <- getf "sum";
  if t.n > 0 then begin
    t.acc.mn <- getf "min";
    t.acc.mx <- getf "max"
  end;
  (match Json.member "buckets" j with
  | Some (Json.List bs) ->
    List.iter
      (function
        | Json.List [ Json.Int i; Json.Int c ] when i >= 0 && i < n_buckets ->
          t.counts.(i) <- t.counts.(i) + c
        | _ -> failwith "Histo.of_json: bad bucket entry")
      bs
  | _ -> ());
  t
