type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 0) () = { data = Array.make (max capacity 1) 0; len = 0 }

let[@inline] length v = v.len

let check v i name =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Ivec.%s: index %d out of bounds [0,%d)" name i v.len)

let[@inline] get v i =
  check v i "get";
  Array.unsafe_get v.data i

let[@inline] unsafe_get v i = Array.unsafe_get v.data i

let[@inline] set v i x =
  check v i "set";
  Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data' = Array.make (2 * cap) 0 in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  let i = v.len in
  v.len <- v.len + 1;
  i

let pop v =
  if v.len = 0 then invalid_arg "Ivec.pop: empty vector";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (Array.unsafe_get v.data i :: acc) in
  loop (v.len - 1) []

let to_array v = Array.sub v.data 0 v.len

let of_list xs =
  let v = create ~capacity:(List.length xs) () in
  List.iter (fun x -> ignore (push v x)) xs;
  v

let find_index p v =
  let rec loop i =
    if i >= v.len then -1
    else if p (Array.unsafe_get v.data i) then i
    else loop (i + 1)
  in
  loop 0
