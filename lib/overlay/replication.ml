(* [by_item] is indexed directly by the item id (items are small dense
   ints in practice — key indices), holding each item's replica set as a
   sorted array.  The random walk reads that array once per search
   ([replicas]); [holds] runs once per flood visit and repair
   candidate, so it must not chase a tree — a binary search over a
   short sorted int array stays in one cache line.  That array is the
   only copy of a placement: there is no per-peer inverse view, because
   only crash-stop faults and tests ask which items a peer holds, and
   they can afford a scan of [by_item] (O(items * log repl)), while
   every placement would pay to keep the view current. *)
type t = {
  total_peers : int;
  mutable by_item : int array array; (* item -> sorted replicas; [||] = absent *)
}

let no_replicas : int array = [||]

let create ~peers =
  if peers < 1 then invalid_arg "Replication.create: need >= 1 peer";
  { total_peers = peers; by_item = Array.make 64 no_replicas }

let peers t = t.total_peers

let ensure_item t item =
  if item < 0 then invalid_arg "Replication: negative item";
  let n = Array.length t.by_item in
  if item >= n then begin
    let grown = Array.make (max (item + 1) (2 * n)) no_replicas in
    Array.blit t.by_item 0 grown 0 n;
    t.by_item <- grown
  end

let replicas_of t item =
  if item < 0 || item >= Array.length t.by_item then no_replicas else t.by_item.(item)

(* Binary search in a sorted replica array.  The annotations are load
   bearing: without them [<] and [=] here are polymorphic, compile to
   [caml_compare] calls, and [holds] runs at less than half speed. *)
let mem_sorted (reps : int array) (peer : int) =
  let lo = ref 0 and hi = ref (Array.length reps - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get reps mid in
    if v = peer then found := true
    else if v < peer then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Sort an int array in place: quicksort (median-of-three pivot,
   Hoare partition) down to 16-element runs, then insertion sort.
   Monomorphic, so every comparison is one machine compare, where
   [Array.sort Int.compare] runs heapsort through a closure call per
   comparison at about three times the cost on a 200-replica set.  The
   inputs are random samples or a sorted survivor set with new peers
   appended, on which the median of three stays central. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let x = a.(lo) and y = a.((lo + hi) lsr 1) and z = a.(hi - 1) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let v = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- v;
        incr i;
        decr j
      end
    done;
    sort_ints a lo (!j + 1);
    sort_ints a !i hi
  end

let remove t ~item =
  if item >= 0 && item < Array.length t.by_item then t.by_item.(item) <- no_replicas

let place_on t ~item ~replicas =
  Array.iter
    (fun p -> if p < 0 || p >= t.total_peers then invalid_arg "Replication.place_on: bad peer")
    replicas;
  ensure_item t item;
  (* Sort a copy and drop duplicates in place: the sorted distinct set. *)
  let reps =
    let sorted = Array.copy replicas in
    sort_ints sorted 0 (Array.length sorted);
    let n = Array.length sorted in
    let distinct = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || sorted.(i) <> sorted.(i - 1) then begin
        sorted.(!distinct) <- sorted.(i);
        incr distinct
      end
    done;
    if !distinct = n then sorted else Array.sub sorted 0 !distinct
  in
  t.by_item.(item) <- reps

let remove_peer t ~peer =
  if peer < 0 || peer >= t.total_peers then invalid_arg "Replication.remove_peer: bad peer";
  let held = ref 0 in
  Array.iteri
    (fun item reps ->
      if mem_sorted reps peer then begin
        incr held;
        (* [reps] is sorted and holds [peer] once, so [kept] is full and
           still sorted. *)
        let kept = Array.make (Array.length reps - 1) 0 in
        let j = ref 0 in
        Array.iter
          (fun p ->
            if p <> peer then begin
              kept.(!j) <- p;
              incr j
            end)
          reps;
        t.by_item.(item) <- (if Array.length kept = 0 then no_replicas else kept)
      end)
    t.by_item;
  !held

let place t rng ~item ~repl =
  if repl < 1 then invalid_arg "Replication.place: repl must be >= 1";
  let k = min repl t.total_peers in
  let replicas = Pdht_util.Sampling.sample_without_replacement rng ~k ~n:t.total_peers in
  place_on t ~item ~replicas

let replicas t ~item = replicas_of t item
let holds t ~peer ~item = mem_sorted (replicas_of t item) peer

let items_at t ~peer =
  if peer < 0 || peer >= t.total_peers then invalid_arg "Replication.items_at: bad peer";
  let items = ref [] in
  for item = Array.length t.by_item - 1 downto 0 do
    if mem_sorted t.by_item.(item) peer then items := item :: !items
  done;
  !items

let replication_factor t ~item = Array.length (replicas t ~item)

let availability t ~online ~item =
  let reps = replicas t ~item in
  let total = Array.length reps in
  if total = 0 then 0.
  else
    let up = Array.fold_left (fun acc p -> if online p then acc + 1 else acc) 0 reps in
    float_of_int up /. float_of_int total
