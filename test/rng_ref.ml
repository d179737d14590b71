(* Verbatim copy of [Pdht_util.Rng] as it was when each 64-bit
   xoshiro256** state word was held as two immediate 32-bit halves in
   native ints.  test_util's "rng matches the 32-bit-halves reference"
   drives it beside the native-word module from the same seeds with
   the same operations and requires every output, and the next raw
   draw, to agree.  Do not edit it to follow the library. *)

(* xoshiro256** with each 64-bit state word held as two immediate 32-bit
   halves in native ints.  A boxed [mutable int64] state costs ~26 minor
   words per draw (every field store and intermediate re-boxes), and the
   draw rate is high enough that RNG boxing dominated the allocation
   profile of every randomised hot path.  With int halves a draw
   allocates nothing; the emitted stream is bit-for-bit identical to the
   boxed implementation.  [resh]/[resl] are scratch output slots so
   [step] can hand both halves back without allocating a tuple. *)
type t = {
  mutable s0h : int; mutable s0l : int;
  mutable s1h : int; mutable s1l : int;
  mutable s2h : int; mutable s2l : int;
  mutable s3h : int; mutable s3l : int;
  mutable resh : int; mutable resl : int;
}

let mask32 = 0xFFFFFFFF

(* One xoshiro256** step: scrambler output [rotl (s1 * 5) 7 * 9] into
   [resh]/[resl], then the linear state transition.  All arithmetic
   stays below 2^40, far inside the 63-bit native int. *)
let step t =
  let m5l0 = t.s1l * 5 in
  let m5l = m5l0 land mask32 in
  let m5h = ((t.s1h * 5) + (m5l0 lsr 32)) land mask32 in
  let r7h = ((m5h lsl 7) lor (m5l lsr 25)) land mask32 in
  let r7l = ((m5l lsl 7) lor (m5h lsr 25)) land mask32 in
  let m9l0 = r7l * 9 in
  t.resl <- m9l0 land mask32;
  t.resh <- ((r7h * 9) + (m9l0 lsr 32)) land mask32;
  let tmph = ((t.s1h lsl 17) lor (t.s1l lsr 15)) land mask32 in
  let tmpl = (t.s1l lsl 17) land mask32 in
  t.s2h <- t.s2h lxor t.s0h;
  t.s2l <- t.s2l lxor t.s0l;
  t.s3h <- t.s3h lxor t.s1h;
  t.s3l <- t.s3l lxor t.s1l;
  t.s1h <- t.s1h lxor t.s2h;
  t.s1l <- t.s1l lxor t.s2l;
  t.s0h <- t.s0h lxor t.s3h;
  t.s0l <- t.s0l lxor t.s3l;
  t.s2h <- t.s2h lxor tmph;
  t.s2l <- t.s2l lxor tmpl;
  (* s3 <- rotl s3 45, i.e. swap halves then rotate by 13. *)
  let h = t.s3h and l = t.s3l in
  t.s3h <- ((l lsl 13) lor (h lsr 19)) land mask32;
  t.s3l <- ((h lsl 13) lor (l lsr 19)) land mask32

(* splitmix64: used only to expand the seed into the four xoshiro words,
   as recommended by Blackman & Vigna.  Setup-time only, so the boxed
   Int64 arithmetic is fine here. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hi64 v = Int64.to_int (Int64.shift_right_logical v 32)
let lo64 v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

let of_words s0 s1 s2 s3 =
  {
    s0h = hi64 s0; s0l = lo64 s0;
    s1h = hi64 s1; s1l = lo64 s1;
    s2h = hi64 s2; s2l = lo64 s2;
    s3h = hi64 s3; s3l = lo64 s3;
    resh = 0; resl = 0;
  }

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  of_words s0 s1 s2 s3

let copy t =
  {
    s0h = t.s0h; s0l = t.s0l;
    s1h = t.s1h; s1l = t.s1l;
    s2h = t.s2h; s2l = t.s2l;
    s3h = t.s3h; s3l = t.s3l;
    resh = 0; resl = 0;
  }

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.resh) 32) (Int64.of_int t.resl)

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  of_words s0 s1 s2 s3

(* Derivation is stateless: two splitmix64 rounds mix [seed] and
   [stream] so that nearby (seed, stream) pairs land far apart, and the
   result does not depend on any generator having been advanced.  The
   +1 keeps stream 0 from collapsing to a plain splitmix of the seed. *)
let derive_seed ~seed ~stream =
  let state = ref (Int64.of_int seed) in
  let mixed_seed = splitmix64_next state in
  let state =
    ref
      (Int64.logxor mixed_seed
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (stream + 1))))
  in
  (* Keep 62 bits: a 63-bit value can still wrap negative through
     Int64.to_int on 64-bit OCaml ints. *)
  Int64.to_int (Int64.shift_right_logical (splitmix64_next state) 2)

let of_stream ~seed ~stream = create ~seed:(derive_seed ~seed ~stream)

(* Exactly uniform bounded draws.  Two strategies, both rejection
   sampled so every bound is exactly uniform:

   - bound < 2^30: Lemire's multiply-shift.  [r30 * bound] fits a
     native int, the candidate is its high 30 bits, and the biased low
     slots are rejected.  The common case costs one multiply and one
     shift — no hardware division, which at the simulator's draw volume
     (maintenance probes, walk steps, routing) is the dominant cost of
     a draw.  The division computing the exact rejection threshold only
     runs when the cheap [low < bound] pre-test fires (probability
     [bound / 2^30]).
   - larger bounds: the classic 62-bit modulo rejection.

   Top-level [let rec] so the retry paths need no per-call closure. *)
let rec lemire_draw t bound =
  step t;
  let r30 = t.resh lsr 2 in
  let m = r30 * bound in
  let low = m land 0x3FFFFFFF in
  if low < bound && low < (0x40000000 - bound) mod bound then lemire_draw t bound
  else m lsr 30

let rec int_draw t bound =
  step t;
  (* The 62 high bits of the output word, as in [bits64 >>> 2]. *)
  let r = (t.resh lsl 30) lor (t.resl lsr 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound < 0x40000000 then lemire_draw t bound else int_draw t bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 high bits give a uniform double in [0,1). *)
  step t;
  float_of_int ((t.resh lsl 21) lor (t.resl lsr 11)) *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t =
  step t;
  t.resl land 1 = 1

let bernoulli t ~p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. unit_float t in
  -.log u /. rate
