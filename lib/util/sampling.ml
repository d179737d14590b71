let shuffle_sub rng arr ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length arr - len then invalid_arg "Sampling.shuffle_sub";
  for i = len - 1 downto 1 do
    let j = pos + Rng.int rng (i + 1) in
    let tmp = arr.(pos + i) in
    arr.(pos + i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle rng arr = shuffle_sub rng arr ~pos:0 ~len:(Array.length arr)

(* Sparse partial Fisher-Yates: O(k) time and space instead of
   materialising the whole [0..n-1] pool (which made every caller pay
   O(n) — ruinous when P-Grid construction samples references out of
   half the population per peer).  A table records only the positions
   the virtual pool differs from the identity at; draws and output are
   index-for-index identical to shuffling the real pool.

   The table is open-addressed with linear probing, one
   (stamp, position, value) triple a slot in one flat int array.  A
   slot is in use iff its stamp is the table's current generation, so a
   table reused from sample to sample is emptied by bumping the
   generation.  The home slot of [pos] is [pos] itself, masked: keys
   are uniform draws, so their low bits are already uniform.  A sample
   of [k] writes at most [k] slots of at least [2k]. *)
type table = { mutable gen : int; mutable cells : int array; mutable mask : int }

let table () = { gen = 0; cells = [||]; mask = -1 }

let reserve tb k =
  if 2 * k > tb.mask + 1 then begin
    let slots = ref 2 in
    while !slots < 2 * k do
      slots := 2 * !slots
    done;
    (* Stamp 0 is never a generation in use. *)
    tb.cells <- Array.make (3 * !slots) 0;
    tb.mask <- !slots - 1
  end

(* The slot holding [pos], or the free one where it would go.  Slots
   stay within [mask], so the reads go unchecked. *)
let[@inline] slot (cells : int array) mask gen pos =
  let s = ref (pos land mask) in
  while
    Array.unsafe_get cells (3 * !s) = gen && Array.unsafe_get cells ((3 * !s) + 1) <> pos
  do
    s := (!s + 1) land mask
  done;
  !s

(* The pool's value at [pos], whose slot is [s]. *)
let[@inline] held (cells : int array) gen s pos =
  if Array.unsafe_get cells (3 * s) <> gen then pos else Array.unsafe_get cells ((3 * s) + 2)

(* Draw [k] of [\[0, n)] into [out.(0 .. k-1)], in draw order. *)
let fill tb rng ~k ~n (out : int array) =
  reserve tb k;
  tb.gen <- tb.gen + 1;
  let cells = tb.cells and mask = tb.mask and gen = tb.gen in
  for i = 0 to k - 1 do
    let j = Rng.int_in_range rng ~lo:i ~hi:(n - 1) in
    let vi = held cells gen (slot cells mask gen i) i in
    let sj = slot cells mask gen j in
    out.(i) <- held cells gen sj j;
    (* Position [i] is never read again (future draws live in
       [i+1, n-1]), so only [j]'s displacement needs recording. *)
    Array.unsafe_set cells (3 * sj) gen;
    Array.unsafe_set cells ((3 * sj) + 1) j;
    Array.unsafe_set cells ((3 * sj) + 2) vi
  done

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Sampling.sample_without_replacement";
  let out = Array.make k 0 in
  fill (table ()) rng ~k ~n out;
  out

(* A reusable sampler over [\[0, n)] hands its samples back ascending
   without sorting them.  It marks each value in a bitmap of 32 bits a
   word ([bits]) and each non-zero bitmap word in a summary bitmap
   ([summary]), then reads both in order, clearing as it goes, so the
   bitmaps are empty again between samples: O(k + n/1024) a sample.
   32-bit words keep the de Bruijn multiply that finds a word's lowest
   set bit inside OCaml's 63-bit ints. *)
type sampler = {
  n : int;
  tb : table;
  mutable drawn : int array;
  bits : int array;
  summary : int array;
}

let sampler ~n =
  if n < 0 then invalid_arg "Sampling.sampler: negative population";
  let words = (n + 31) lsr 5 in
  {
    n;
    tb = table ();
    drawn = [||];
    bits = Array.make words 0;
    summary = Array.make ((words + 31) lsr 5) 0;
  }

let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]
[@@ocamlformat "disable"]

(* Index of the one set bit of [b], a power of two below 2^32. *)
let[@inline] bit_index b = Array.unsafe_get debruijn (((b * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Mark [v], which must lie in [\[0, n)]; true iff it was unmarked.
   [n] bounds every index below, so the reads go unchecked. *)
let[@inline] mark bits summary v =
  let w = v lsr 5 in
  let word = Array.unsafe_get bits w in
  let bit = 1 lsl (v land 31) in
  word land bit = 0
  && begin
       Array.unsafe_set bits w (word lor bit);
       let sw = w lsr 5 in
       Array.unsafe_set summary sw (Array.unsafe_get summary sw lor (1 lsl (w land 31)));
       true
     end

(* The [count] marked values, ascending, unmarking them.  Each set
   summary bit names a non-zero bitmap word, and the walk stops after
   the [count]-th value, so no read leaves either bitmap. *)
let emit s count =
  let bits = s.bits and summary = s.summary in
  let out = Array.make count 0 in
  let o = ref 0 and sw = ref 0 in
  while !o < count do
    let sum = ref (Array.unsafe_get summary !sw) in
    Array.unsafe_set summary !sw 0;
    while !sum <> 0 do
      let low = !sum land - !sum in
      sum := !sum lxor low;
      let w = (!sw lsl 5) lor bit_index low in
      let word = ref (Array.unsafe_get bits w) in
      Array.unsafe_set bits w 0;
      while !word <> 0 do
        let low = !word land - !word in
        word := !word lxor low;
        Array.unsafe_set out !o ((w lsl 5) lor bit_index low);
        incr o
      done
    done;
    incr sw
  done;
  out

let sample_sorted s rng ~k =
  if k < 0 || k > s.n then invalid_arg "Sampling.sample_sorted";
  if Array.length s.drawn < k then s.drawn <- Array.make k 0;
  let drawn = s.drawn and bits = s.bits and summary = s.summary in
  fill s.tb rng ~k ~n:s.n drawn;
  for i = 0 to k - 1 do
    ignore (mark bits summary (Array.unsafe_get drawn i))
  done;
  emit s k

let sorted_distinct s values =
  Array.iter
    (fun v -> if v < 0 || v >= s.n then invalid_arg "Sampling.sorted_distinct: out of range")
    values;
  let distinct = ref 0 in
  Array.iter (fun v -> if mark s.bits s.summary v then incr distinct) values;
  emit s !distinct

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Alias.create: empty weights";
    let total = Array.fold_left ( +. ) 0. weights in
    if not (total > 0.) then invalid_arg "Alias.create: weights sum to zero";
    Array.iter (fun w -> if w < 0. then invalid_arg "Alias.create: negative weight") weights;
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let prob = Array.make n 1. in
    let alias = Array.init n Fun.id in
    let small = Queue.create () in
    let large = Queue.create () in
    Array.iteri (fun i s -> Queue.add i (if s < 1. then small else large)) scaled;
    while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
      let s = Queue.pop small in
      let l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
      Queue.add l (if scaled.(l) < 1. then small else large)
    done;
    (* Leftovers are 1.0 up to rounding; prob is already 1. *)
    { prob; alias }


  let draw t rng =
    let i = Rng.int rng (Array.length t.prob) in
    if Rng.unit_float rng < t.prob.(i) then i else t.alias.(i)
end
