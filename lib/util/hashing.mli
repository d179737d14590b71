(** Deterministic string hashing for DHT key ids.

    [Pdht.create] and the cluster's [Node] both derive key [i]'s id as
    [hash_to_key (combine ["key"; string_of_int i])], so the simulator
    and every worker process place a key on the same replica group.  We
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
