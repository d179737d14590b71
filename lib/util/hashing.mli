(** Deterministic string hashing for DHT key ids.

    [Pdht.create] derives key [i]'s id as {!key_id}[ i], which equals
    [hash_to_key (combine ["key"; string_of_int i])].  We
    use FNV-1a 64-bit: simple, fast, stable across runs and platforms —
    unlike [Hashtbl.hash], whose value may change between compiler
    versions. *)

val fnv1a64 : string -> int64
(** Raw FNV-1a 64-bit hash. *)

val hash_to_key : string -> Bitkey.t
(** Hash a string into the binary key space. *)

val combine : string list -> string
(** Canonical encoding of a list of fields before hashing.  Uses a
    length-prefixed encoding so that [combine \["ab"; "c"\]] and
    [combine \["a"; "bc"\]] differ. *)

val key_id : int -> Bitkey.t
(** [key_id i] is [hash_to_key (combine \["key"; string_of_int i\])],
    computed without building either string: the digits are fed to the
    hash arithmetically, so a key id costs no allocation.
    @raise Invalid_argument when [i < 0]. *)
