(* A minimal self-contained JSON tree (the container has no yojson).
   Formerly nested inside [Obs]; hoisted so [Histo] and [Regress] can
   use it without depending on the observability context.
   [Obs.Json] remains an alias. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_to b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Floats keep a decimal point (or exponent) so they parse back as
   [Float], never [Int]; non-finite values have no JSON form and
   degrade to null. *)
let float_repr x =
  if Float.is_nan x || Float.abs x = infinity then "null"
  else begin
    let s = Printf.sprintf "%.12g" x in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"
  end

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x -> Buffer.add_string b (float_repr x)
  | String s -> escape_to b s
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape_to b k;
        Buffer.add_char b ':';
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* Recursive-descent parser over a string with an index cell. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg !pos) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else begin
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 'r' -> Buffer.add_char b '\r'
             | 't' -> Buffer.add_char b '\t'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
               if !pos + 4 > n then fail "bad \\u escape";
               let code = int_of_string ("0x" ^ String.sub s !pos 4) in
               pos := !pos + 4;
               (* BMP only; encode as UTF-8 *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
             | _ -> fail "bad escape"
           end);
          go ()
        | c ->
          Buffer.add_char b c;
          go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some x -> Float x
      | None -> fail "bad number"
    else begin
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with Some x -> Float x | None -> fail "bad number")
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let to_float = function
  | Int i -> float_of_int i
  | Float x -> x
  | _ -> failwith "Json.to_float: not a number"

(* Atomic file write shared by every JSON artifact sink (stats dumps,
   traces, bench records): write to a temp file next to the target,
   then rename over it, so a SIGKILL mid-write never leaves a truncated
   artifact behind (same discipline as [Css_flow.Persist]). *)
let write_file path (emit : out_channel -> unit) =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp in
  (try
     emit oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path
