type severity =
  | Info
  | Warning
  | Error

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

type t = {
  severity : severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

let make ?file ?line ?hint severity ~code message =
  { severity; code; file; line; message; hint }

let error ?file ?line ?hint ~code message = make ?file ?line ?hint Error ~code message
let warning ?file ?line ?hint ~code message = make ?file ?line ?hint Warning ~code message

let is_error d = d.severity = Error

let has_errors ds = List.exists is_error ds

let to_string d =
  let loc =
    match (d.file, d.line) with
    | Some f, Some l -> Printf.sprintf " %s:%d:" f l
    | Some f, None -> Printf.sprintf " %s:" f
    | None, Some l -> Printf.sprintf " line %d:" l
    | None, None -> ""
  in
  let hint = match d.hint with Some h -> Printf.sprintf " (hint: %s)" h | None -> "" in
  Printf.sprintf "%s[%s]%s %s%s" (severity_name d.severity) d.code loc d.message hint

exception Failed of t list

let () =
  Printexc.register_printer (function
    | Failed ds ->
      Some
        (Printf.sprintf "Diag.Failed:\n%s"
           (String.concat "\n" (List.map to_string ds)))
    | _ -> None)

type collector = {
  mutable rev : t list;
  mutable errors : int;
}

let collector () = { rev = []; errors = 0 }

let emit c d =
  c.rev <- d :: c.rev;
  if is_error d then c.errors <- c.errors + 1

let diags c = List.rev c.rev

let error_count c = c.errors

(* Two-row Levenshtein. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let nearest name candidates =
  let budget = max 2 (String.length name / 3) in
  let best =
    List.fold_left
      (fun acc c ->
        let d = edit_distance name c in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ when d <= budget -> Some (c, d)
        | _ -> acc)
      None candidates
  in
  Option.map fst best

let did_you_mean name candidates =
  Option.map (Printf.sprintf "did you mean %S?") (nearest name candidates)
