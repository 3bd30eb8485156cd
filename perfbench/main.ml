(* Command-line entry of the benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload in this process and prints a human-readable table
   of every metric, then, as the last line, the JSON result object. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload flow-sb18|css-suite|eco-sb18 --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let name = get "workload" in
  let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" = 1 in
  let run =
    match List.assoc_opt name Perfbench.Workloads.all with Some f -> f | None -> usage ()
  in
  let o = run ~seed ~seconds ~trace in
  List.iter print_endline o.Perfbench.Workloads.notes;
  List.iter
    (fun (m : Perfbench.Ledger.metric) ->
      if List.mem m.Perfbench.Ledger.name o.Perfbench.Workloads.absent then
        Printf.printf "%-28s %16s %s (not measured on this workload; 0 in the JSON line)\n"
          m.name "absent" m.unit_
      else Printf.printf "%-28s %16.6f %s\n" m.name m.value m.unit_)
    o.metrics;
  let tally = o.tally in
  Printf.printf "%-28s %16.6f ratio\n" "failed_frac" (Perfbench.Ledger.failed_frac tally);
  List.iter (Printf.printf "FAILED CHECK: %s\n") (List.rev tally.Perfbench.Ledger.failures);
  print_endline
    (Perfbench.Ledger.result_line ~correct:(tally.Perfbench.Ledger.failed = 0) tally o.metrics)
