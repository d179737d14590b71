(* Unit and property tests for Pdht_util: PRNG, sampling, statistics,
   bit keys, hashing and table rendering. *)

module Rng = Pdht_util.Rng
module Sampling = Pdht_util.Sampling
module Stats = Pdht_util.Stats
module Bitkey = Pdht_util.Bitkey
module Hashing = Pdht_util.Hashing
module Table = Pdht_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose msg = Alcotest.(check (float 0.05)) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb;
  (* Advancing the copy must not disturb the original. *)
  ignore (Rng.bits64 b);
  ignore (Rng.bits64 b);
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  Alcotest.(check bool) "diverged" true (not (Int64.equal a' b'))

let test_rng_split_independent () =
  let parent = Rng.create ~seed:11 in
  let child = Rng.split parent in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr overlap
  done;
  Alcotest.(check bool) "split stream is distinct" true (!overlap < 4)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let v = Rng.int rng bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in_range () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 200 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let test_rng_derive_seed_deterministic () =
  Alcotest.(check int) "same pair, same seed"
    (Rng.derive_seed ~seed:42 ~stream:3)
    (Rng.derive_seed ~seed:42 ~stream:3);
  Alcotest.(check bool) "non-negative" true (Rng.derive_seed ~seed:(-9) ~stream:0 >= 0);
  (* Stateless: deriving is not affected by other derivations. *)
  let a = Rng.derive_seed ~seed:1 ~stream:5 in
  ignore (Rng.derive_seed ~seed:99 ~stream:7);
  Alcotest.(check int) "stateless" a (Rng.derive_seed ~seed:1 ~stream:5)

let test_rng_derive_seed_separates_streams () =
  (* Distinct streams (and distinct root seeds) must not collide over a
     modest range, and the derived generators must not share a stream. *)
  let seen = Hashtbl.create 512 in
  for seed = 0 to 15 do
    for stream = 0 to 15 do
      let s = Rng.derive_seed ~seed ~stream in
      Alcotest.(check bool)
        (Printf.sprintf "no collision at (%d,%d)" seed stream)
        false (Hashtbl.mem seen s);
      Hashtbl.replace seen s ()
    done
  done;
  let a = Rng.of_stream ~seed:7 ~stream:0 in
  let b = Rng.of_stream ~seed:7 ~stream:1 in
  let overlap = ref 0 in
  for _ = 1 to 200 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr overlap
  done;
  Alcotest.(check int) "streams do not track each other" 0 !overlap

let test_rng_unit_float_range () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let u = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:9 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_float_loose "bucket ~10%" 0.1 frac)
    buckets

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:10 in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli rng ~p:0.);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli rng ~p:1.);
  Alcotest.(check bool) "p<0 clamps" false (Rng.bernoulli rng ~p:(-0.5));
  Alcotest.(check bool) "p>1 clamps" true (Rng.bernoulli rng ~p:1.5)

let test_rng_bernoulli_mean () =
  let rng = Rng.create ~seed:12 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  check_float_loose "mean ~ p" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let acc = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~rate:2.
  done;
  check_float_loose "mean = 1/rate" 0.5 (!acc /. float_of_int n)

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:14 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:0.1 > 0.)
  done;
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng ~rate:0.))

let test_rng_known_answers () =
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create ~seed in
      List.iteri
        (fun i want ->
          Alcotest.(check int64) (Printf.sprintf "seed %d, draw %d" seed i) want (Rng.bits64 rng))
        expected)
    [
      (0, [ 0x99ec5f36cb75f2b4L; 0xbf6e1f784956452aL; 0x1a5f849d4933e6e0L; 0x6aa594f1262d2d2cL ]);
      (42, [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L; 0xecb8ad4703b360a1L ]);
    ]

(* The native-word generator against [Rng_ref], the 32-bit-halves
   implementation it replaced.  Both sides start from one seed and run
   the same operations; every output must agree, and so must the next
   raw draw at the end.  [Split]/[Copy] compare a draw of the children
   and then carry on with the child or the parent, so a child sharing
   state with its parent shows up on either side. *)
type rng_op =
  | Split of bool (* carry on with the child *)
  | Copy of bool
  | Bits64
  | Int of int
  | Int_in_range of int * int
  | Float of float
  | Unit_float
  | Bool
  | Bernoulli of float
  | Exponential of float

let show_rng_op = function
  | Split c -> Printf.sprintf "split(child=%b)" c
  | Copy c -> Printf.sprintf "copy(child=%b)" c
  | Bits64 -> "bits64"
  | Int b -> Printf.sprintf "int %d" b
  | Int_in_range (lo, hi) -> Printf.sprintf "int_in_range %d %d" lo hi
  | Float b -> Printf.sprintf "float %h" b
  | Unit_float -> "unit_float"
  | Bool -> "bool"
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Exponential r -> Printf.sprintf "exponential %h" r

(* Bounds on both sides of the Lemire/modulo switch at 2^30, and up to
   [max_int], where the modulo ladder rejects almost half its draws. *)
let rng_bound_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, int_range 1 64);
      (4, int_range 1 ((1 lsl 30) - 1));
      (2, int_range ((1 lsl 30) - 4) ((1 lsl 30) + 4));
      (2, int_range (1 lsl 30) max_int);
      (1, int_range (max_int - 4) max_int);
    ]

let rng_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, map (fun c -> Split c) bool);
      (1, map (fun c -> Copy c) bool);
      (2, return Bits64);
      (4, map (fun b -> Int b) rng_bound_gen);
      (2, map2 (fun lo b -> Int_in_range (lo, lo + b - 1)) (int_range (-1000) 0) rng_bound_gen);
      (1, map (fun b -> Float b) (float_range 0. 1000.));
      (2, return Unit_float);
      (2, return Bool);
      ( 2,
        map
          (fun p -> Bernoulli p)
          (oneof
             [ float_range (-1.) 0.; float_range 0. 1.; float_range 1. 2.; oneofl [ 0.; 1. ] ])
      );
      (1, map (fun r -> Exponential r) (float_range 1e-3 100.));
    ]

let rng_ref_test =
  let print (seed, ops) =
    Printf.sprintf "seed=%d ops=[%s]" seed (String.concat "; " (List.map show_rng_op ops))
  in
  QCheck.Test.make ~name:"rng matches the 32-bit-halves reference" ~count:1000
    (QCheck.make ~print
       QCheck.Gen.(pair (int_range min_int max_int) (list_size (int_range 1 200) rng_op_gen)))
    (fun (seed, ops) ->
      let step (a, r) op =
        let fork child ca cr =
          (Int64.equal (Rng.bits64 ca) (Rng_ref.bits64 cr), if child then (ca, cr) else (a, r))
        in
        match op with
        | Split child -> fork child (Rng.split a) (Rng_ref.split r)
        | Copy child -> fork child (Rng.copy a) (Rng_ref.copy r)
        | Bits64 -> (Int64.equal (Rng.bits64 a) (Rng_ref.bits64 r), (a, r))
        | Int b -> (Rng.int a b = Rng_ref.int r b, (a, r))
        | Int_in_range (lo, hi) ->
            (Rng.int_in_range a ~lo ~hi = Rng_ref.int_in_range r ~lo ~hi, (a, r))
        | Float b -> (Rng.float a b = Rng_ref.float r b, (a, r))
        | Unit_float -> (Rng.unit_float a = Rng_ref.unit_float r, (a, r))
        | Bool -> (Rng.bool a = Rng_ref.bool r, (a, r))
        | Bernoulli p -> (Rng.bernoulli a ~p = Rng_ref.bernoulli r ~p, (a, r))
        | Exponential rate -> (Rng.exponential a ~rate = Rng_ref.exponential r ~rate, (a, r))
      in
      let rec run gens = function
        | [] ->
            let a, r = gens in
            Int64.equal (Rng.bits64 a) (Rng_ref.bits64 r)
        | op :: rest ->
            let same, gens = step gens op in
            same && run gens rest
      in
      run (Rng.create ~seed, Rng_ref.create ~seed) ops)

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:20 in
  let arr = Array.init 50 Fun.id in
  Sampling.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_actually_shuffles () =
  let rng = Rng.create ~seed:21 in
  let arr = Array.init 100 Fun.id in
  Sampling.shuffle rng arr;
  Alcotest.(check bool) "not identity" true (arr <> Array.init 100 Fun.id)

let test_sample_without_replacement_distinct () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 50 do
    let s = Sampling.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    let distinct = Array.to_list sorted |> List.sort_uniq compare in
    Alcotest.(check int) "all distinct" 10 (List.length distinct);
    Array.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 30)) s
  done

let test_sample_without_replacement_full () =
  let rng = Rng.create ~seed:24 in
  let s = Sampling.sample_without_replacement rng ~k:5 ~n:5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole population" [| 0; 1; 2; 3; 4 |] sorted

let test_alias_matches_weights () =
  let rng = Rng.create ~seed:28 in
  let sampler = Sampling.Alias.create [| 3.; 1.; 6. |] in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Sampling.Alias.draw sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_float_loose "w0" 0.3 (float_of_int counts.(0) /. float_of_int n);
  check_float_loose "w1" 0.1 (float_of_int counts.(1) /. float_of_int n);
  check_float_loose "w2" 0.6 (float_of_int counts.(2) /. float_of_int n)

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights")
    (fun () -> ignore (Sampling.Alias.create [||]));
  Alcotest.check_raises "zero mass" (Invalid_argument "Alias.create: weights sum to zero")
    (fun () -> ignore (Sampling.Alias.create [| 0.; 0. |]));
  Alcotest.check_raises "negative" (Invalid_argument "Alias.create: negative weight")
    (fun () -> ignore (Sampling.Alias.create [| 1.; -1.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_variance () =
  check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  check_float "stddev" 1. (Stats.stddev [| 1.; 2.; 3. |]);
  check_float "empty mean" 0. (Stats.mean [||]);
  check_float "single stddev" 0. (Stats.stddev [| 5. |])

let test_harmonic () =
  check_float "H_1" 1. (Stats.harmonic_generalized ~n:1 ~alpha:1.2);
  check_float "H_3 alpha=1" (1. +. 0.5 +. (1. /. 3.))
    (Stats.harmonic_generalized ~n:3 ~alpha:1.);
  check_float "alpha=0 counts" 5. (Stats.harmonic_generalized ~n:5 ~alpha:0.)

let test_bitkey_roundtrip () =
  let k = Bitkey.of_int 12345 in
  Alcotest.(check int) "roundtrip" 12345 (Bitkey.to_int k);
  Alcotest.check_raises "negative" (Invalid_argument "Bitkey.of_int: negative")
    (fun () -> ignore (Bitkey.of_int (-1)))

let test_bitkey_bits () =
  (* Key 1 has only its least significant bit set. *)
  let k = Bitkey.of_int 1 in
  Alcotest.(check bool) "last bit" true (Bitkey.bit k (Bitkey.width - 1));
  Alcotest.(check bool) "first bit" false (Bitkey.bit k 0)

let test_bitkey_common_prefix () =
  let a = Bitkey.of_int 0 in
  Alcotest.(check int) "equal keys" Bitkey.width (Bitkey.common_prefix_length a a);
  let b = Bitkey.flip_bit a 0 in
  Alcotest.(check int) "first bit differs" 0 (Bitkey.common_prefix_length a b);
  let c = Bitkey.flip_bit a 10 in
  Alcotest.(check int) "bit 10 differs" 10 (Bitkey.common_prefix_length a c)

(* The bit loop [common_prefix_length] replaced: compare MSB-first
   until the first differing bit. *)
let cpl_bit_loop a b =
  let rec go i = if i = Bitkey.width || Bitkey.bit a i <> Bitkey.bit b i then i else go (i + 1) in
  go 0

(* Equal keys give [width]; a single differing bit at position [i]
   gives [i], for every position, over random base keys. *)
let test_bitkey_common_prefix_each_bit () =
  let rng = Rng.create ~seed:62 in
  for _ = 1 to 20 do
    let a = Bitkey.random rng in
    Alcotest.(check int) "equal keys" Bitkey.width (Bitkey.common_prefix_length a a);
    for i = 0 to Bitkey.width - 1 do
      let b = Bitkey.flip_bit a i in
      Alcotest.(check int) (Printf.sprintf "bit %d differs" i) i (Bitkey.common_prefix_length a b);
      Alcotest.(check int) (Printf.sprintf "bit %d differs, bit loop" i) i (cpl_bit_loop a b)
    done
  done

let bitkey_cpl_test =
  (* Random pairs, and pairs sharing a random-length prefix, so every
     answer 0-62 turns up. *)
  let gen =
    let open QCheck.Gen in
    let key =
      map (fun x -> Bitkey.of_int (x land ((1 lsl Bitkey.width) - 1))) (int_bound max_int)
    in
    frequency
      [
        (1, pair key key);
        ( 2,
          map3
            (fun a b len ->
              let keep = Bitkey.to_int (Bitkey.prefix a ~len) in
              let tail = Bitkey.to_int b land ((1 lsl (Bitkey.width - len)) - 1) in
              (a, Bitkey.of_int (keep lor tail)))
            key key (int_range 0 Bitkey.width) );
      ]
  in
  QCheck.Test.make ~name:"common_prefix_length matches the bit loop" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "%x %x" (Bitkey.to_int a) (Bitkey.to_int b))
       gen)
    (fun (a, b) -> Bitkey.common_prefix_length a b = cpl_bit_loop a b)

let test_bitkey_flip_involutive () =
  let rng = Rng.create ~seed:40 in
  for _ = 1 to 100 do
    let k = Bitkey.random rng in
    let i = Rng.int rng Bitkey.width in
    Alcotest.(check bool) "flip twice is identity" true
      (Bitkey.equal k (Bitkey.flip_bit (Bitkey.flip_bit k i) i))
  done

let test_bitkey_bits_string_roundtrip () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 50 do
    let k = Bitkey.random rng in
    let s = Bitkey.to_bits k ~len:Bitkey.width in
    Alcotest.(check bool) "roundtrip" true (Bitkey.equal k (Bitkey.of_bits s))
  done

let test_bitkey_of_bits_prefix () =
  let k = Bitkey.of_bits "101" in
  Alcotest.(check string) "prefix preserved" "101" (Bitkey.to_bits k ~len:3);
  Alcotest.(check string) "rest zero" "1010000" (Bitkey.to_bits k ~len:7);
  Alcotest.check_raises "bad char" (Invalid_argument "Bitkey.of_bits: expected '0' or '1'")
    (fun () -> ignore (Bitkey.of_bits "10x"))

let test_bitkey_prefix_matching () =
  let k = Bitkey.of_bits "110101" in
  let p = Bitkey.of_bits "1101" in
  Alcotest.(check bool) "matches own prefix" true (Bitkey.matches_prefix k ~prefix:p ~len:4);
  let q = Bitkey.of_bits "1110" in
  Alcotest.(check bool) "mismatch detected" false (Bitkey.matches_prefix k ~prefix:q ~len:4);
  Alcotest.(check bool) "len 0 always matches" true (Bitkey.matches_prefix k ~prefix:q ~len:0)

let test_bitkey_xor_distance () =
  let a = Bitkey.of_int 12 and b = Bitkey.of_int 10 in
  Alcotest.(check int) "xor" (12 lxor 10) (Bitkey.xor_distance a b);
  Alcotest.(check int) "self distance" 0 (Bitkey.xor_distance a a)

let test_bitkey_random_nonnegative () =
  let rng = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "non-negative" true (Bitkey.to_int (Bitkey.random rng) >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_hash_deterministic () =
  Alcotest.(check bool) "same input same key" true
    (Bitkey.equal (Hashing.hash_to_key "abc") (Hashing.hash_to_key "abc"));
  Alcotest.(check bool) "different inputs differ" true
    (not (Bitkey.equal (Hashing.hash_to_key "abc") (Hashing.hash_to_key "abd")))

let test_combine_unambiguous () =
  Alcotest.(check bool) "field boundaries matter" true
    (Hashing.combine [ "ab"; "c" ] <> Hashing.combine [ "a"; "bc" ]);
  Alcotest.(check string) "empty list" "" (Hashing.combine [])

let test_hash_spread () =
  (* Keys from sequential inputs should spread across the MSB space:
     the top 4 bits should take many values (this guards against the
     FNV high-bit weakness that once skewed replica groups). *)
  let seen = Hashtbl.create 16 in
  for i = 0 to 799 do
    let k = Hashing.key_id i in
    let top4 = Bitkey.to_int k lsr (Bitkey.width - 4) in
    Hashtbl.replace seen top4 ()
  done;
  Alcotest.(check bool) "top bits spread" true (Hashtbl.length seen >= 14)

(* [key_id] is the string form, hashed without the string.  The digit
   count changes at every power of ten, and at ten digits it takes two
   bytes itself, so each boundary is checked on both sides. *)
let key_id_string_form i = Hashing.hash_to_key (Hashing.combine [ "key"; string_of_int i ])

let test_key_id_boundaries () =
  let rec powers p acc = if p > max_int / 10 then p :: acc else powers (p * 10) (p :: acc) in
  let cases =
    List.concat_map (fun p -> [ p - 1; p; p + 1 ]) (powers 1 []) @ [ 0; max_int - 1; max_int ]
  in
  List.iter
    (fun i ->
      if not (Bitkey.equal (Hashing.key_id i) (key_id_string_form i)) then
        Alcotest.failf "key_id %d differs from the string form" i)
    cases;
  Alcotest.check_raises "negative" (Invalid_argument "Hashing.key_id: negative index")
    (fun () -> ignore (Hashing.key_id (-1)))

let key_id_test =
  QCheck.Test.make ~name:"key_id equals the string form" ~count:1000
    QCheck.(oneof [ int_bound 1_000_000; map (fun i -> i land max_int) int ])
    (fun i -> Bitkey.equal (Hashing.key_id i) (key_id_string_form i))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t =
    Table.make
      [ ("name", Table.Left, fst); ("value", Table.Right, snd) ]
      [ ("x", "1"); ("longer", "22") ]
  in
  Alcotest.(check (list string)) "padded to the widest cell, aligned per column"
    [ "name    value"; "-------------"; "x           1"; "longer     22" ]
    (String.split_on_char '\n' (Table.render t))

let test_table_csv () =
  let t =
    Table.make
      [ ("a", Table.Left, fst); ("b", Table.Right, snd) ]
      [ ("plain", "1"); ("with,comma", "say \"hi\"") ]
  in
  let csv = Table.render_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header first" "a,b" (List.hd lines);
  Alcotest.(check string) "row order preserved" "plain,1" (List.nth lines 1);
  Alcotest.(check string) "quoting" "\"with,comma\",\"say \"\"hi\"\"\"" (List.nth lines 2)

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rng int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair small_int (list small_int))
      (fun (seed, xs) ->
        let rng = Rng.create ~seed in
        let arr = Array.of_list xs in
        Sampling.shuffle rng arr;
        List.sort compare (Array.to_list arr) = List.sort compare xs);
    Test.make ~name:"common_prefix_length symmetric" ~count:500
      (pair small_int small_int)
      (fun (a, b) ->
        let ka = Bitkey.of_int (abs a) and kb = Bitkey.of_int (abs b) in
        Bitkey.common_prefix_length ka kb = Bitkey.common_prefix_length kb ka);
    Test.make ~name:"prefix of key matches key" ~count:500
      (pair small_int (int_range 0 62))
      (fun (a, len) ->
        let k = Bitkey.of_int (abs a) in
        let p = Bitkey.prefix k ~len in
        Bitkey.matches_prefix k ~prefix:p ~len);
    Test.make ~name:"combine injective on list structure" ~count:300
      (pair (small_list small_string) (small_list small_string))
      (fun (xs, ys) ->
        if xs = ys then Hashing.combine xs = Hashing.combine ys
        else Hashing.combine xs <> Hashing.combine ys);
  ]

let () =
  Alcotest.run "pdht_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "derive_seed deterministic" `Quick test_rng_derive_seed_deterministic;
          Alcotest.test_case "derive_seed separates streams" `Quick test_rng_derive_seed_separates_streams;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          QCheck_alcotest.to_alcotest rng_ref_test;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle shuffles" `Quick test_shuffle_actually_shuffles;
          Alcotest.test_case "swr distinct" `Quick test_sample_without_replacement_distinct;
          Alcotest.test_case "swr full population" `Quick test_sample_without_replacement_full;
          Alcotest.test_case "alias matches weights" `Quick test_alias_matches_weights;
          Alcotest.test_case "alias rejects bad weights" `Quick test_alias_rejects_bad_weights;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
        ] );
      ( "bitkey",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitkey_roundtrip;
          Alcotest.test_case "bit indexing" `Quick test_bitkey_bits;
          Alcotest.test_case "common prefix" `Quick test_bitkey_common_prefix;
          Alcotest.test_case "common prefix at each bit" `Quick
            test_bitkey_common_prefix_each_bit;
          QCheck_alcotest.to_alcotest bitkey_cpl_test;
          Alcotest.test_case "flip involutive" `Quick test_bitkey_flip_involutive;
          Alcotest.test_case "bits string roundtrip" `Quick test_bitkey_bits_string_roundtrip;
          Alcotest.test_case "of_bits prefix" `Quick test_bitkey_of_bits_prefix;
          Alcotest.test_case "prefix matching" `Quick test_bitkey_prefix_matching;
          Alcotest.test_case "xor distance" `Quick test_bitkey_xor_distance;
          Alcotest.test_case "random nonnegative" `Quick test_bitkey_random_nonnegative;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "combine unambiguous" `Quick test_combine_unambiguous;
          Alcotest.test_case "MSB spread" `Quick test_hash_spread;
          Alcotest.test_case "key_id digit boundaries" `Quick test_key_id_boundaries;
          QCheck_alcotest.to_alcotest key_id_test;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
