(** Fixed-width binary keys.

    The paper assumes a binary key space (Section 3.2, footnote 3): DHT
    routing resolves one bit per hop, so the expected lookup cost is
    [1/2 * log2 n] messages (Eq. 7).  Keys here are 62-bit non-negative
    integers (so they always fit OCaml's 63-bit native int)
    interpreted most-significant-bit first, which is wide
    enough for any simulated population while staying unboxed. *)

type t = private int
(** A key; compares with the standard polymorphic operators. *)

val width : int
(** Number of significant bits (62). *)

val of_int : int -> t
(** Interpret a non-negative [int] as a key.  @raise Invalid_argument on
    negatives. *)

val to_int : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val random : Rng.t -> t

val bit : t -> int -> bool
(** [bit k i] is bit [i] counting from the most significant ([i = 0]) to
    the least significant ([i = width - 1]). *)

val common_prefix_length : t -> t -> int
(** Number of leading bits shared by the two keys (= [width] iff
    equal). *)

val xor_distance : t -> t -> int
(** Kademlia-style XOR metric, handy for cross-checks. *)

val prefix : t -> len:int -> t
(** [prefix k ~len] zeroes all but the first [len] bits. *)

val matches_prefix : t -> prefix:t -> len:int -> bool
(** Does [k] start with the first [len] bits of [prefix]? *)

val flip_bit : t -> int -> t
(** Flip bit [i] (MSB-first indexing). *)

val to_bits : t -> len:int -> string
(** First [len] bits rendered as a ['0'/'1'] string (for debugging and
    P-Grid paths). *)

val of_bits : string -> t
(** Parse a ['0'/'1'] string as the leading bits of a key, remaining
    bits zero.  @raise Invalid_argument on other characters or strings
    longer than [width]. *)
