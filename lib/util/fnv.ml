let basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let mix_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* a loop, not [String.iter]: a ref captured by a closure escapes, and
   every byte would box a fresh Int64 *)
let of_string s =
  let h = ref basis in
  for i = 0 to String.length s - 1 do
    h := mix_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h
