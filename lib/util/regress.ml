(* Perf-regression diffing between two stats/bench JSON artifacts.

   Two input shapes, auto-detected:
   - a BENCH_css.json array (bench/main.ml): records keyed by
     design/engine carrying wall_ms, cells_per_sec, peak_rss_bytes,
     edge_ratio and per-phase histograms;
   - an Obs stats dump (--stats-json / Obs.write_json): an object with
     "counters", "spans", "histograms".

   Each comparable metric becomes a row with a signed delta in the
   *worse* direction (positive = regression) and an optional gating
   threshold; [gate] fails when any gated row exceeds its threshold.
   Metrics follow the repo's 0-means-not-measured convention: a zero
   baseline or current value yields an informational row, never a
   division by ~0.

   This lives in the library (not bin/css_stats.ml) so the gate logic
   itself is unit-tested; the CLI is a thin cmdliner shell. *)

type thresholds = {
  max_wall_pct : float; (* wall_ms, span totals *)
  max_rss_pct : float; (* peak_rss_bytes *)
  max_p95_pct : float; (* histogram p95 shifts, edge ratio *)
}

let default_thresholds = { max_wall_pct = 10.0; max_rss_pct = 5.0; max_p95_pct = 25.0 }

type row = {
  r_key : string; (* e.g. "sb18/iterative-essential" *)
  r_metric : string; (* e.g. "wall_ms" *)
  r_base : float;
  r_cur : float;
  r_delta_pct : float; (* positive = worse *)
  r_threshold_pct : float option; (* None = informational *)
  r_regressed : bool;
}

type report = {
  rows : row list;
  missing : string list; (* baseline keys absent from current *)
}

let regressions r = List.filter (fun row -> row.r_regressed) r.rows
let ok r = regressions r = [] && r.missing = []

(* --- helpers --- *)

let num_field j name = Option.map Json.to_float (Json.member name j)
let str_field j name =
  match Json.member name j with Some (Json.String s) -> Some s | _ -> None

let pct_delta ~base ~cur = 100.0 *. (cur -. base) /. base

(* [worse_sign]: +1 when larger is worse (wall, rss), -1 when smaller is
   worse (cells/sec). *)
let mk_row ~key ~metric ~worse_sign ~threshold ~base ~cur =
  if base <= 0.0 || cur < 0.0 then
    (* not measured on one side: informational, never gated *)
    Some { r_key = key; r_metric = metric; r_base = base; r_cur = cur;
           r_delta_pct = 0.0; r_threshold_pct = None; r_regressed = false }
  else begin
    let delta = worse_sign *. pct_delta ~base ~cur in
    let regressed = match threshold with Some th -> delta > th | None -> false in
    Some { r_key = key; r_metric = metric; r_base = base; r_cur = cur;
           r_delta_pct = delta; r_threshold_pct = threshold; r_regressed = regressed }
  end

let opt_row rows = function Some r -> rows := r :: !rows | None -> ()

let histo_p95 hj =
  match Json.member "p95" hj with Some v -> Some (Json.to_float v) | None -> None

(* --- bench-array mode --- *)

let bench_key j =
  match (str_field j "design", str_field j "engine") with
  | Some d, Some e -> d ^ "/" ^ e
  | Some d, None -> d
  | None, _ -> "?"

let compare_histograms ~th ~key ~rows base_h cur_h =
  match (base_h, cur_h) with
  | Some (Json.Obj base_kvs), Some (Json.Obj _ as cur_obj) ->
    List.iter
      (fun (name, bh) ->
        match Json.member name cur_obj with
        | Some ch -> (
          match (histo_p95 bh, histo_p95 ch) with
          | Some bp, Some cp ->
            opt_row rows
              (mk_row ~key ~metric:(name ^ ".p95") ~worse_sign:1.0
                 ~threshold:(Some th.max_p95_pct) ~base:bp ~cur:cp)
          | _ -> ())
        | None -> ())
      base_kvs
  | _ -> ()

let diff_bench ~th base_records cur_records =
  let tbl = Hashtbl.create 16 in
  List.iter (fun j -> Hashtbl.replace tbl (bench_key j) j) cur_records;
  let rows = ref [] in
  let missing = ref [] in
  List.iter
    (fun bj ->
      let key = bench_key bj in
      match Hashtbl.find_opt tbl key with
      | None -> missing := key :: !missing
      | Some cj ->
        let metric name ~worse_sign ~threshold =
          match (num_field bj name, num_field cj name) with
          | Some b, Some c -> opt_row rows (mk_row ~key ~metric:name ~worse_sign ~threshold ~base:b ~cur:c)
          | _ -> ()
        in
        metric "wall_ms" ~worse_sign:1.0 ~threshold:(Some th.max_wall_pct);
        metric "peak_rss_bytes" ~worse_sign:1.0 ~threshold:(Some th.max_rss_pct);
        metric "cells_per_sec" ~worse_sign:(-1.0) ~threshold:None;
        (* scheduler iterations are deterministic: any increase is a
           behaviour change (e.g. a phase crawling to its iteration cap) *)
        metric "iterations" ~worse_sign:1.0 ~threshold:(Some 0.0);
        (* edge ratio: prefer the precomputed field, else derive *)
        (match (num_field bj "edge_ratio", num_field cj "edge_ratio") with
        | Some b, Some c ->
          opt_row rows
            (mk_row ~key ~metric:"edge_ratio" ~worse_sign:1.0
               ~threshold:(Some th.max_p95_pct) ~base:b ~cur:c)
        | _ -> (
          let derived j =
            match (num_field j "edges_extracted", num_field j "edges_full") with
            | Some e, Some f when f > 0.0 -> Some (e /. f)
            | _ -> None
          in
          match (derived bj, derived cj) with
          | Some b, Some c ->
            opt_row rows
              (mk_row ~key ~metric:"edge_ratio" ~worse_sign:1.0
                 ~threshold:(Some th.max_p95_pct) ~base:b ~cur:c)
          | _ -> ()));
        compare_histograms ~th ~key ~rows (Json.member "histograms" bj) (Json.member "histograms" cj);
        (* numeric fields the baseline predates (a freshly added metric,
           e.g. cache_hit_ratio against an older artifact): surface them
           as informational rows — never gated, never a failure — so the
           report shows the new numbers until the baseline is refreshed *)
        (match cj with
        | Json.Obj kvs ->
          List.iter
            (fun (name, v) ->
              match v with
              | Json.Int _ | Json.Float _ when num_field bj name = None ->
                opt_row rows
                  (mk_row ~key ~metric:name ~worse_sign:1.0 ~threshold:None ~base:0.0
                     ~cur:(Json.to_float v))
              | _ -> ())
            kvs
        | _ -> ()))
    base_records;
  { rows = List.rev !rows; missing = List.rev !missing }

(* --- stats-dump mode --- *)

let diff_stats ~th base cur =
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
           opt_row rows
             (mk_row ~key:p ~metric:"total_s" ~worse_sign:1.0
                ~threshold:(Some th.max_wall_pct) ~base:b ~cur:c));
  (* histogram p95 shifts *)
  compare_histograms ~th ~key:"histo" ~rows (Json.member "histograms" base)
    (Json.member "histograms" cur);
  (* counters: informational, only when changed *)
  (match (Json.member "counters" base, Json.member "counters" cur) with
  | Some (Json.Obj bc), Some (Json.Obj _ as cobj) ->
    List.iter
      (fun (name, bv) ->
        match (bv, Json.member name cobj) with
        | Json.Int b, Some (Json.Int c) when b <> c ->
          opt_row rows
            (mk_row ~key:"counter" ~metric:name ~worse_sign:1.0 ~threshold:None
               ~base:(float_of_int b) ~cur:(float_of_int c))
        | _ -> ())
      bc
  | _ -> ());
  { rows = List.rev !rows; missing = List.rev !missing }

let diff ?(thresholds = default_thresholds) ~baseline ~current () =
  match (baseline, current) with
  | Json.List b, Json.List c -> diff_bench ~th:thresholds b c
  | (Json.Obj _ as b), (Json.Obj _ as c) -> diff_stats ~th:thresholds b c
  | _ -> failwith "Regress.diff: inputs must both be bench arrays or both stats objects"

(* --- synthetic regression (gate self-test) --- *)

(* Scale the wall/RSS-like metrics of [j] — bench wall/RSS, span
   totals, histogram p95s — up by [pct] percent, leaving everything
   else alone. CI runs the gate against its own baseline with an
   inflated current to prove the gate actually trips. *)
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
  match j with
  | Json.List records -> Json.List (List.map (scale_fields [ "wall_ms"; "peak_rss_bytes" ]) records)
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
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
