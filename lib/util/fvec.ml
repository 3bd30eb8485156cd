type t = {
  mutable data : float array;
  mutable len : int;
}

let create ?(capacity = 0) () = { data = Array.make (max capacity 1) 0.0; len = 0 }

let make n x = { data = Array.make (max n 1) x; len = n }

let check v i name =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Fvec.%s: index %d out of bounds [0,%d)" name i v.len)

let[@inline] get v i =
  check v i "get";
  Array.unsafe_get v.data i

let[@inline] unsafe_get v i = Array.unsafe_get v.data i

let[@inline] set v i x =
  check v i "set";
  Array.unsafe_set v.data i x

let[@inline] unsafe_set v i x = Array.unsafe_set v.data i x

let grow v =
  let cap = Array.length v.data in
  let data' = Array.make (2 * cap) 0.0 in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  let i = v.len in
  v.len <- v.len + 1;
  i

let to_array v = Array.sub v.data 0 v.len
