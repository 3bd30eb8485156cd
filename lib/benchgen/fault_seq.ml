module Rng = Css_util.Rng
module Design = Css_netlist.Design
module Point = Css_geometry.Point

type op =
  | Netlist of Mutator.fault
  | Sdc of Mutator.sdc_fault
  | Lib of Mutator.lib_fault
  | Fuzz_netlist of int
  | Fuzz_sdc of int
  | Sabotage_late

type step = {
  salt : int;
  op : op;
}

type t = {
  seed : int;
  steps : step list;
}

type corpus = {
  design_text : string;
  sdc_text : string;
  library : Css_liberty.Library.t;
  sabotage_late : bool;
}

let push_ffs_off_die d =
  Array.iter
    (fun ff ->
      let p = Design.cell_pos d ff in
      Design.move_cell d ff (Point.make (p.Point.x +. 5.0e5) p.Point.y))
    (Design.ffs d)

(* SplitMix-style finalizer so nearby (seed, salt) pairs decorrelate *)
let mix seed salt =
  let h = ref (seed lxor (salt * 0x9e3779b9) lxor 0x51ab1e) in
  h := (!h lxor (!h lsr 16)) * 0x85ebca6b land max_int;
  h := (!h lxor (!h lsr 13)) * 0xc2b2ae35 land max_int;
  !h lxor (!h lsr 16)

let step_rng seed step = Rng.create (mix seed step.salt)

let gen ?(max_len = 6) rng =
  let seed = Rng.int rng 1_000_000_000 in
  let n = 1 + Rng.int rng max_len in
  let netlist_pool = Array.of_list Mutator.all in
  let sdc_pool = Array.of_list Mutator.all_sdc in
  let lib_pool = Array.of_list Mutator.all_lib in
  let steps =
    List.init n (fun _ ->
        let salt = Rng.int rng 0x100000 in
        let op =
          (* netlist faults carry most of the weight; the rest split the tail *)
          match Rng.int rng 11 with
          | 0 | 1 | 2 | 3 | 4 -> Netlist (Rng.choose rng netlist_pool)
          | 5 | 6 -> Sdc (Rng.choose rng sdc_pool)
          | 7 -> Lib (Rng.choose rng lib_pool)
          | 8 -> Fuzz_netlist (1 + Rng.int rng 16)
          | 9 -> Fuzz_sdc (1 + Rng.int rng 16)
          | _ -> Sabotage_late
        in
        { salt; op })
  in
  { seed; steps }

let apply t corpus =
  let applied = ref 0 in
  let run corpus step =
    let rng = step_rng t.seed step in
    let note outcome = if outcome = `Applied then incr applied in
    match step.op with
    | Netlist f ->
      let design_text, o = Mutator.corrupt f rng corpus.design_text in
      note o;
      { corpus with design_text }
    | Sdc f ->
      let sdc_text, o = Mutator.corrupt_sdc f rng corpus.sdc_text in
      note o;
      { corpus with sdc_text }
    | Lib f ->
      let library, o = Mutator.corrupt_library f rng corpus.library in
      note o;
      { corpus with library }
    | Fuzz_netlist ops ->
      let design_text, o = Mutator.fuzz_bytes ~ops rng corpus.design_text in
      note o;
      { corpus with design_text }
    | Fuzz_sdc ops ->
      let sdc_text, o = Mutator.fuzz_bytes ~ops rng corpus.sdc_text in
      note o;
      { corpus with sdc_text }
    | Sabotage_late ->
      note (if corpus.sabotage_late then `Noop else `Applied);
      { corpus with sabotage_late = true }
  in
  let corpus' = List.fold_left run corpus t.steps in
  (corpus', !applied)

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let remove_chunk steps ~at ~len =
  List.filteri (fun i _ -> i < at || i >= at + len) steps

(* chunk removals, biggest first, then per-step op simplifications *)
let shrink t =
  let n = List.length t.steps in
  let removals () =
    let rec sizes acc len = if len < 1 then acc else sizes (len :: acc) (len / 2) in
    (* e.g. n=6 -> [1; 3] reversed to try big chunks first *)
    let lens = List.rev (sizes [] (n / 2)) in
    let lens = if n = 1 then [ 1 ] else lens in
    List.concat_map
      (fun len ->
        List.init
          (n - len + 1)
          (fun at -> { t with steps = remove_chunk t.steps ~at ~len }))
      lens
  in
  let fuzz_halvings () =
    List.concat
      (List.mapi
         (fun i s ->
           let replace ops =
             {
               t with
               steps =
                 List.mapi (fun j s' -> if j = i then { s' with op = ops } else s') t.steps;
             }
           in
           match s.op with
           | Fuzz_netlist k when k > 1 -> [ replace (Fuzz_netlist (k / 2)) ]
           | Fuzz_sdc k when k > 1 -> [ replace (Fuzz_sdc (k / 2)) ]
           | _ -> [])
         t.steps)
  in
  if n = 0 then Seq.empty
  else Seq.append (List.to_seq (removals ())) (List.to_seq (fuzz_halvings ()))

type minimize_result = {
  minimized : t;
  shrink_rounds : int;
  shrink_timeout : bool;
}

let minimize_timed ?(max_rounds = 400) ?deadline_seconds fails t =
  if not (fails t) then invalid_arg "Fault_seq.minimize: the input sequence does not fail";
  let t0 = Css_util.Wall_clock.now () in
  let timed_out () =
    match deadline_seconds with
    | None -> false
    | Some d -> Css_util.Wall_clock.now () -. t0 > d
  in
  (* the deadline is also threaded into the candidate filter: each [fails]
     call replays a whole pipeline, so an expired budget must stop the
     scan between candidates, not only between accepted rounds *)
  let rec go t rounds accepted =
    if rounds <= 0 || timed_out () then (t, accepted)
    else
      match Seq.find (fun c -> (not (timed_out ())) && fails c) (shrink t) with
      | Some smaller -> go smaller (rounds - 1) (accepted + 1)
      | None -> (t, accepted)
  in
  let minimized, shrink_rounds = go t max_rounds 0 in
  { minimized; shrink_rounds; shrink_timeout = timed_out () }

let minimize ?max_rounds ?deadline_seconds fails t =
  (minimize_timed ?max_rounds ?deadline_seconds fails t).minimized

(* ------------------------------------------------------------------ *)
(* Replayable rendering *)

let op_to_string = function
  | Netlist f -> "netlist:" ^ Mutator.name f
  | Sdc f -> "sdc:" ^ Mutator.sdc_name f
  | Lib f -> "lib:" ^ Mutator.lib_name f
  | Fuzz_netlist n -> "fuzz-netlist:" ^ string_of_int n
  | Fuzz_sdc n -> "fuzz-sdc:" ^ string_of_int n
  | Sabotage_late -> "flow:sabotage-late"

let to_string t =
  Printf.sprintf "seed=%d steps=%s" t.seed
    (String.concat "," (List.map (fun s -> Printf.sprintf "%s@%d" (op_to_string s.op) s.salt) t.steps))

let parse_op kind v =
  match kind with
  | "netlist" -> Option.map (fun f -> Netlist f) (Mutator.of_name v)
  | "sdc" -> Option.map (fun f -> Sdc f) (Mutator.sdc_of_name v)
  | "lib" -> Option.map (fun f -> Lib f) (Mutator.lib_of_name v)
  | "fuzz-netlist" -> Option.map (fun n -> Fuzz_netlist n) (int_of_string_opt v)
  | "fuzz-sdc" -> Option.map (fun n -> Fuzz_sdc n) (int_of_string_opt v)
  | "flow" when v = "sabotage-late" -> Some Sabotage_late
  | _ -> None

let parse_step s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "step %S: missing @salt" s)
  | Some at -> (
    let body = String.sub s 0 at in
    let salt = String.sub s (at + 1) (String.length s - at - 1) in
    match (String.index_opt body ':', int_of_string_opt salt) with
    | None, _ -> Error (Printf.sprintf "step %S: missing kind:" s)
    | _, None -> Error (Printf.sprintf "step %S: bad salt" s)
    | Some colon, Some salt -> (
      let kind = String.sub body 0 colon in
      let v = String.sub body (colon + 1) (String.length body - colon - 1) in
      match parse_op kind v with
      | Some op -> Ok { salt; op }
      | None -> Error (Printf.sprintf "step %S: unknown fault %s:%s" s kind v)))

let of_string s =
  let s = String.trim s in
  let fields = String.split_on_char ' ' s |> List.filter (fun f -> f <> "") in
  let lookup key =
    List.find_map
      (fun f ->
        let pfx = key ^ "=" in
        if String.length f > String.length pfx && String.sub f 0 (String.length pfx) = pfx then
          Some (String.sub f (String.length pfx) (String.length f - String.length pfx))
        else None)
      fields
  in
  match (lookup "seed", lookup "steps") with
  | None, _ -> Error "missing seed=<n>"
  | _, None -> Error "missing steps=<list>"
  | Some seed, Some steps -> (
    match int_of_string_opt seed with
    | None -> Error "bad seed"
    | Some seed ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
          match parse_step s with Ok st -> collect (st :: acc) rest | Error e -> Error e)
      in
      Result.map
        (fun steps -> { seed; steps })
        (collect [] (String.split_on_char ',' steps |> List.filter (fun f -> f <> ""))))
