(* xoshiro256** with its four 64-bit state words stored natively in a
   32-byte [Bytes], read and written through the unboxed 64-bit bytes
   primitives.  [step] holds the words in let-bound [int64] temporaries,
   which ocamlopt keeps unboxed, and is inlined into every draw so its
   [int64] result never boxes either: a draw allocates nothing
   (test_scale's "rng draws" case fails otherwise).  A record of
   [mutable int64] fields would box on every store, and 32-bit halves in
   native ints pay several int operations for each 64-bit multiply,
   shift and rotate. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the scrambled output [rotl (s1 * 5) 7 * 9],
   then the linear state transition. *)
let[@inline] step t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

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

let of_splitmix state =
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64_next state)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))
let copy = Bytes.copy
let bits64 t = step t
let split t = of_splitmix (ref (bits64 t))

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
  (* The 30 high bits of the output word. *)
  let r30 = Int64.to_int (Int64.shift_right_logical (step t) 34) in
  let m = r30 * bound in
  let low = m land 0x3FFFFFFF in
  if low < bound && low < (0x40000000 - bound) mod bound then lemire_draw t bound
  else m lsr 30

let rec int_draw t bound =
  (* The 62 high bits of the output word, as in [bits64 >>> 2]. *)
  let r = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound < 0x40000000 then lemire_draw t bound else int_draw t bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

(* Inlined into the draws below, so [bernoulli] compares an unboxed
   float and allocates nothing. *)
let[@inline] unit_float t =
  (* 53 high bits give a uniform double in [0,1). *)
  float_of_int (Int64.to_int (Int64.shift_right_logical (step t) 11)) *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.to_int (step t) land 1 = 1

let bernoulli t ~p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. unit_float t in
  -.log u /. rate
