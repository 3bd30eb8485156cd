(* One-shot wrappers over the session-first surface: [run] opens a
   session, drains it and closes it; [resume] does the same from a
   durable checkpoint. All machinery lives in {!Session}. *)

include Session

(* Drain to the result, closing the session on every exit path — the
   one-shot contract the historical flow kept. *)
let finish_and_close s =
  Fun.protect
    ~finally:(fun () -> close s)
    (fun () -> finish s)

let run ?(config = default_config) ~algo design =
  let s = open_ ~config ~algo design in
  finish_and_close s

let resume ?(config = default_config) ~library ~dir () =
  match reopen ~config ~library ~dir () with
  | Error _ as e -> e
  | Ok s ->
    let design = design s in
    let result = finish_and_close s in
    Ok (result, design)
