(* Perf-regression diffing between two JSON artifacts.

   Two input shapes, auto-detected:
   - a perfbench result line (the last line of perfbench/run.py): an
     object with "correct", "failed" and "metrics" (name -> {value,
     unit}), judged against the metric table of BENCHMARK.json;
   - an Obs stats dump (--stats-json / Obs.write_json): an object with
     "counters", "spans", "histograms".

   Each comparable metric becomes a row with a signed delta in the
   *worse* direction (positive = regression) and an optional gating
   threshold; [ok] fails when any gated row regressed or a baseline
   metric went missing. Metrics follow the repo's 0-means-not-measured
   convention: a zero baseline value yields an informational row, never
   a division by ~0.

   This lives in the library (not bin/css_stats.ml) so the gate logic
   itself is unit-tested; the CLI is a thin cmdliner shell. *)

(* stats-dump thresholds, percent: span totals and histogram p95s *)
let max_span_pct = 10.0
let max_p95_pct = 25.0

type row = {
  r_key : string; (* e.g. "end_to_end", "per_layer", "late-css" *)
  r_metric : string; (* e.g. "run_s" *)
  r_base : float;
  r_cur : float;
  r_delta_pct : float; (* positive = worse *)
  r_threshold_pct : float option; (* None = informational *)
  r_regressed : bool;
}

type report = {
  rows : row list;
  missing : string list; (* baseline metrics/spans absent from current *)
}

let regressions r = List.filter (fun row -> row.r_regressed) r.rows
let ok r = regressions r = [] && r.missing = []

(* --- helpers --- *)

let num_field j name = Option.map Json.to_float (Json.member name j)
let str_field j name =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let pct_delta ~base ~cur = 100.0 *. (cur -. base) /. base

(* [worse_sign]: +1 when larger is worse (times, RSS), -1 when smaller
   is worse (gains, ratios). *)
let mk_row ~key ~metric ~worse_sign ~threshold ~base ~cur =
  if base <= 0.0 || cur < 0.0 then
    (* not measured on one side: informational, never gated *)
    { r_key = key; r_metric = metric; r_base = base; r_cur = cur;
      r_delta_pct = 0.0; r_threshold_pct = None; r_regressed = false }
  else begin
    (* + 0.0 turns the -0.0 of an unchanged higher-is-better metric into 0 *)
    let delta = (worse_sign *. pct_delta ~base ~cur) +. 0.0 in
    let regressed = match threshold with Some th -> delta > th | None -> false in
    { r_key = key; r_metric = metric; r_base = base; r_cur = cur;
      r_delta_pct = delta; r_threshold_pct = threshold; r_regressed = regressed }
  end

(* A value that repeats exactly for a seed: any move in the worse
   direction regresses, zero baseline included. *)
let exact_row ~key ~metric ~worse_sign ~base ~cur =
  let delta = if base = 0.0 then 0.0 else (worse_sign *. pct_delta ~base ~cur) +. 0.0 in
  { r_key = key; r_metric = metric; r_base = base; r_cur = cur; r_delta_pct = delta;
    r_threshold_pct = Some 0.0; r_regressed = worse_sign *. (cur -. base) > 0.0 }

let histo_p95 hj =
  match Json.member "p95" hj with Some v -> Some (Json.to_float v) | None -> None

(* --- perfbench-line mode --- *)

type spec = {
  s_unit : string;
  s_worse_sign : float;
  s_bound_pct : float option; (* end-to-end metrics only *)
}

(* BENCHMARK.json's "end_to_end" and "per_layer" tables, by metric name *)
let specs benchmark =
  let section name =
    match Json.member name benchmark with
    | Some (Json.List items) ->
      List.filter_map
        (fun m ->
          match (str_field m "name", str_field m "unit", str_field m "better") with
          | Some n, Some u, Some b ->
            Some
              ( n,
                { s_unit = u;
                  s_worse_sign = (if b = "higher" then -1.0 else 1.0);
                  s_bound_pct = Option.map (fun x -> 100.0 *. x) (num_field m "bound") } )
          | _ -> None)
        items
    | _ -> []
  in
  match section "end_to_end" @ section "per_layer" with
  | [] -> failwith "Regress.diff: BENCHMARK.json lists no end_to_end or per_layer metrics"
  | l -> l

(* Per-layer values that repeat exactly for a seed: counts and the
   ratios derived from them. GC counts follow the collector's pacing
   and stay informational. *)
let exact spec name =
  (spec.s_unit = "count" || spec.s_unit = "ratio")
  && not (String.length name >= 3 && String.sub name 0 3 = "gc.")

let metrics j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (n, m) -> Option.map (fun v -> (n, v)) (num_field m "value"))
      kvs
  | _ -> failwith "Regress.diff: perfbench line without a \"metrics\" object"

let diff_perfbench ~benchmark base cur =
  let specs = specs benchmark in
  let bool_field j name = match Json.member name j with Some (Json.Bool b) -> b | _ -> false in
  let base_m = metrics base and cur_m = metrics cur in
  let rows = ref [] and missing = ref [] in
  (* a layer the workload does not measure reads 0 on both sides *)
  let add r = if r.r_regressed || r.r_base <> 0.0 || r.r_cur <> 0.0 then rows := r :: !rows in
  (* the run itself: its checks passed and no operation failed, whatever
     the baseline says *)
  let line_row metric f ~ok =
    { r_key = "line"; r_metric = metric; r_base = f base; r_cur = f cur; r_delta_pct = 0.0;
      r_threshold_pct = Some 0.0; r_regressed = not (ok (f cur)) }
  in
  add (line_row "correct" (fun j -> if bool_field j "correct" then 1.0 else 0.0) ~ok:(( = ) 1.0));
  add (line_row "failed" (fun j -> Option.value ~default:1.0 (num_field j "failed")) ~ok:(( = ) 0.0));
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name cur_m with
      | None -> missing := name :: !missing
      | Some c -> (
        match List.assoc_opt name specs with
        | Some ({ s_bound_pct = Some _; _ } as s) ->
          add (mk_row ~key:"end_to_end" ~metric:name ~worse_sign:s.s_worse_sign
                 ~threshold:s.s_bound_pct ~base:b ~cur:c)
        | Some s when exact s name ->
          add (exact_row ~key:"per_layer" ~metric:name ~worse_sign:s.s_worse_sign ~base:b ~cur:c)
        | Some s ->
          add (mk_row ~key:"per_layer" ~metric:name ~worse_sign:s.s_worse_sign ~threshold:None
                 ~base:b ~cur:c)
        | None ->
          add (mk_row ~key:"unlisted" ~metric:name ~worse_sign:1.0 ~threshold:None ~base:b
                 ~cur:c)))
    base_m;
  (* metrics the baseline predates: shown until it is refreshed *)
  List.iter
    (fun (name, c) ->
      if not (List.mem_assoc name base_m) then
        add (mk_row ~key:"new" ~metric:name ~worse_sign:1.0 ~threshold:None ~base:0.0 ~cur:c))
    cur_m;
  { rows = List.rev !rows; missing = List.rev !missing }

(* --- stats-dump mode --- *)

let compare_histograms ~key ~rows base_h cur_h =
  match (base_h, cur_h) with
  | Some (Json.Obj base_kvs), Some (Json.Obj _ as cur_obj) ->
    List.iter
      (fun (name, bh) ->
        match Option.map histo_p95 (Json.member name cur_obj) with
        | Some (Some cp) -> (
          match histo_p95 bh with
          | Some bp ->
            rows :=
              mk_row ~key ~metric:(name ^ ".p95") ~worse_sign:1.0 ~threshold:(Some max_p95_pct)
                ~base:bp ~cur:cp
              :: !rows
          | None -> ())
        | _ -> ())
      base_kvs
  | _ -> ()

let diff_stats base cur =
  let rows = ref [] in
  let missing = ref [] in
  (* span totals: wall-time regressions per phase path *)
  let span_tbl j =
    let tbl = Hashtbl.create 32 in
    (match Json.member "spans" j with
    | Some (Json.List items) ->
      List.iter
        (fun s ->
          match (str_field s "path", num_field s "total_s") with
          | Some p, Some v -> Hashtbl.replace tbl p v
          | _ -> ())
        items
    | _ -> ());
    tbl
  in
  let base_spans = span_tbl base and cur_spans = span_tbl cur in
  Hashtbl.fold (fun p v acc -> (p, v) :: acc) base_spans []
  |> List.sort compare
  |> List.iter (fun (p, b) ->
         match Hashtbl.find_opt cur_spans p with
         | None -> missing := ("span " ^ p) :: !missing
         | Some c ->
           rows :=
             mk_row ~key:p ~metric:"total_s" ~worse_sign:1.0 ~threshold:(Some max_span_pct)
               ~base:b ~cur:c
             :: !rows);
  (* histogram p95 shifts *)
  compare_histograms ~key:"histo" ~rows (Json.member "histograms" base)
    (Json.member "histograms" cur);
  (* counters: informational, only when changed *)
  (match (Json.member "counters" base, Json.member "counters" cur) with
  | Some (Json.Obj bc), Some (Json.Obj _ as cobj) ->
    List.iter
      (fun (name, bv) ->
        match (bv, Json.member name cobj) with
        | Json.Int b, Some (Json.Int c) when b <> c ->
          rows :=
            mk_row ~key:"counter" ~metric:name ~worse_sign:1.0 ~threshold:None
              ~base:(float_of_int b) ~cur:(float_of_int c)
            :: !rows
        | _ -> ())
      bc
  | _ -> ());
  { rows = List.rev !rows; missing = List.rev !missing }

let is_perfbench_line j = Json.member "metrics" j <> None

let diff ?benchmark ~baseline ~current () =
  match (baseline, current) with
  | (Json.Obj _ as b), (Json.Obj _ as c) when is_perfbench_line b && is_perfbench_line c -> (
    match benchmark with
    | Some benchmark -> diff_perfbench ~benchmark b c
    | None -> failwith "Regress.diff: perfbench lines need BENCHMARK.json's metric table")
  | (Json.Obj _ as b), (Json.Obj _ as c)
    when not (is_perfbench_line b || is_perfbench_line c) ->
    diff_stats b c
  | _ -> failwith "Regress.diff: inputs must both be perfbench lines or both stats objects"

(* --- synthetic regression (gate self-test) --- *)

(* Scale the time/size-like metrics of [j] up by [pct] percent, leaving
   everything else alone: on a perfbench line the s, ms and MB metrics
   and the counts (a traced line carries no bounded metric, so its
   counts are what the gate trips on); in a stats dump the span totals
   and histogram p95s. CI runs the gate against its own baseline with
   an inflated current to prove the gate actually trips. *)
let inflate ~pct j =
  let f = 1.0 +. (pct /. 100.0) in
  let scale_num = function
    | Json.Int i -> Json.Int (int_of_float (Float.round (float_of_int i *. f)))
    | Json.Float x -> Json.Float (x *. f)
    | v -> v
  in
  let scale_fields names = function
    | Json.Obj kvs ->
      Json.Obj (List.map (fun (k, v) -> if List.mem k names then (k, scale_num v) else (k, v)) kvs)
    | v -> v
  in
  let scale_metric = function
    | Json.Obj _ as m when List.mem (str_field m "unit") [ Some "s"; Some "ms"; Some "MB"; Some "count" ]
      ->
      scale_fields [ "value" ] m
    | m -> m
  in
  match j with
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "metrics", Json.Obj ms -> (k, Json.Obj (List.map (fun (n, m) -> (n, scale_metric m)) ms))
           | "spans", Json.List spans ->
             (k, Json.List (List.map (scale_fields [ "total_s" ]) spans))
           | "histograms", Json.Obj hs ->
             (k, Json.Obj (List.map (fun (name, h) -> (name, scale_fields [ "p95" ] h)) hs))
           | _ -> (k, v))
         kvs)
  | v -> v

(* --- rendering --- *)

let render report =
  let b = Buffer.create 1024 in
  let headers = [| "key"; "metric"; "baseline"; "current"; "delta"; "threshold"; "" |] in
  let fmt_v x =
    if Float.abs x >= 1e6 then Printf.sprintf "%.3e" x
    else if Float.is_integer x && Float.abs x < 1e6 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.4g" x
  in
  let cells =
    List.map
      (fun r ->
        [|
          r.r_key;
          r.r_metric;
          fmt_v r.r_base;
          fmt_v r.r_cur;
          Printf.sprintf "%+.1f%%" r.r_delta_pct;
          (match r.r_threshold_pct with Some t -> Printf.sprintf "%.0f%%" t | None -> "-");
          (if r.r_regressed then "REGRESSED" else "ok");
        |])
      report.rows
  in
  let ncols = Array.length headers in
  let widths = Array.map String.length headers in
  List.iter (fun row -> Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) row) cells;
  let emit row =
    for i = 0 to ncols - 1 do
      if i > 0 then Buffer.add_string b "  ";
      let c = row.(i) in
      Buffer.add_string b c;
      if i < ncols - 1 then Buffer.add_string b (String.make (widths.(i) - String.length c) ' ')
    done;
    Buffer.add_char b '\n'
  in
  emit headers;
  emit (Array.map (fun w -> String.make w '-') widths);
  List.iter emit cells;
  List.iter (fun k -> Buffer.add_string b (Printf.sprintf "MISSING from current: %s\n" k)) report.missing;
  let n_reg = List.length (regressions report) in
  Buffer.add_string b
    (if n_reg = 0 && report.missing = [] then "gate: ok\n"
     else Printf.sprintf "gate: %d regression(s), %d missing record(s)\n" n_reg (List.length report.missing));
  Buffer.contents b
