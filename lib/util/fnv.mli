(** FNV-1a hashing over 64-bit words.

    The repo's content hashes (checkpoint bases and journal records) all
    use the same primitive so two layers never disagree about what a
    given byte sequence hashes to. *)

(** The FNV-1a 64-bit offset basis. *)
val basis : int64

(** [mix_byte h b] folds the low 8 bits of [b] into [h]. *)
val mix_byte : int64 -> int -> int64

(** [of_string s] is the FNV-1a hash of the bytes of [s]. *)
val of_string : string -> int64
