(** Sampling utilities over explicit {!Rng.t} streams. *)

val shuffle : Rng.t -> 'a array -> unit
(** Fisher-Yates in-place shuffle. *)

val shuffle_sub : Rng.t -> 'a array -> pos:int -> len:int -> unit
(** Fisher-Yates over [arr.(pos .. pos+len-1)] only, leaving the rest
    untouched.  Draws exactly the same RNG sequence as {!shuffle} on a
    [len]-element array, so shuffling a slice in place is observably
    identical to shuffling a fresh exact-size copy of it.
    @raise Invalid_argument when the slice is not inside [arr]. *)

val sample_without_replacement : Rng.t -> k:int -> n:int -> int array
(** [sample_without_replacement rng ~k ~n] draws [k] distinct indices
    from [\[0, n)], in random order.  Requires [0 <= k <= n].  Uses a
    sparse partial Fisher-Yates pass, O(k) time and space (its
    displacements live in one flat open-addressed int array) — draws
    and output are identical to shuffling a materialised pool, so
    callers' streams are unchanged while [n] can be millions. *)

type sampler
(** Reusable scratch for samples from [\[0, n)] handed back ascending:
    the Fisher-Yates table of the largest sample drawn so far plus two
    bitmaps, O(k + n/32) words.  Single-owner state: not safe to share
    across domains. *)

val sampler : n:int -> sampler

val sample_sorted : sampler -> Rng.t -> k:int -> int array
(** The values [sample_without_replacement rng ~k ~n] would draw, with
    the same draws, in ascending order, in O(k + n/1024) without a
    sort.  Allocates only the result once the scratch has grown to
    [k].  Requires [0 <= k <= n]. *)

val sorted_distinct : sampler -> int array -> int array
(** The distinct values of the array, ascending.  Every value must lie
    in [\[0, n)]; raises [Invalid_argument] otherwise, before touching
    the scratch. *)

(** Walker's alias method: O(n) preprocessing, O(1) per draw. *)
module Alias : sig
  type t

  val create : float array -> t
  (** Build a sampler for the given unnormalised weights.  Requires a
      non-empty array of non-negative weights with positive sum. *)

  val draw : t -> Rng.t -> int
end
