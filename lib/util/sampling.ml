let shuffle_prefix rng arr ~len =
  if len < 0 || len > Array.length arr then invalid_arg "Sampling.shuffle_prefix";
  for i = len - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle rng arr = shuffle_prefix rng arr ~len:(Array.length arr)

(* [displaced] below maps a pool position to the value the virtual
   pool holds there, as (position + 1, value) pairs in one flat int
   array: open addressing with linear probing, a 0 key marks an empty
   slot.  [slot table mask pos] is the pair index holding [pos], or the
   empty one where it would go, and [held] reads the pool there.  The
   slot is [pos] itself, masked: keys are uniform draws, so their low
   bits are already uniform, and a pool no larger than the table never
   collides. *)
let rec probe (table : int array) mask key s =
  let at = table.(2 * s) in
  if at = 0 || at = key then s else probe table mask key ((s + 1) land mask)

let slot table mask pos = probe table mask (pos + 1) (pos land mask)
let held (table : int array) s pos = if table.(2 * s) = 0 then pos else table.((2 * s) + 1)

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Sampling.sample_without_replacement";
  (* Sparse partial Fisher-Yates: O(k) time and space instead of
     materialising the whole [0..n-1] pool (which made every caller pay
     O(n) — ruinous when P-Grid construction samples references out of
     half the population per peer).  [displaced] records only the
     positions the virtual pool differs from the identity at; draws and
     output are index-for-index identical to shuffling the real pool.
     It holds at most [k] entries in at least [2k] slots. *)
  let slots = ref 2 in
  while !slots < 2 * k do
    slots := 2 * !slots
  done;
  let mask = !slots - 1 in
  let displaced = Array.make (2 * !slots) 0 in
  let out = Array.make (max k 1) 0 in
  for i = 0 to k - 1 do
    let j = Rng.int_in_range rng ~lo:i ~hi:(n - 1) in
    let vi = held displaced (slot displaced mask i) i in
    let sj = slot displaced mask j in
    out.(i) <- held displaced sj j;
    (* Position [i] is never read again (future draws live in
       [i+1, n-1]), so only [j]'s displacement needs recording. *)
    displaced.(2 * sj) <- j + 1;
    displaced.((2 * sj) + 1) <- vi
  done;
  if k = Array.length out then out else Array.sub out 0 k

let weighted_index rng weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Sampling.weighted_index: weights sum to zero";
  let target = Rng.float rng total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

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

  let size t = Array.length t.prob

  let draw t rng =
    let i = Rng.int rng (Array.length t.prob) in
    if Rng.unit_float rng < t.prob.(i) then i else t.alias.(i)
end
