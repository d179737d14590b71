(* [by_item] is indexed directly by the item id (items are small dense
   ints in practice — key indices), holding each item's replica set as a
   sorted array.  The random walk reads that array once per search
   ([replicas]); [holds] runs once per flood visit and repair
   candidate, so it must not chase a tree — a binary search over a
   short sorted int array stays in one cache line.  That array is the
   only copy of a placement: there is no per-peer inverse view, because
   only crash-stop faults and tests ask which items a peer holds, and
   they can afford a scan of [by_item] (O(items * log repl)), while
   every placement would pay to keep the view current.  Rows come
   ascending out of [sampler], which the table owns: its scratch
   survives from placement to placement, so a placement allocates only
   its row. *)
type t = {
  total_peers : int;
  mutable by_item : int array array; (* item -> sorted replicas; [||] = absent *)
  sampler : Pdht_util.Sampling.sampler;
}

let no_replicas : int array = [||]

let create ~peers =
  if peers < 1 then invalid_arg "Replication.create: need >= 1 peer";
  {
    total_peers = peers;
    by_item = Array.make 64 no_replicas;
    sampler = Pdht_util.Sampling.sampler ~n:peers;
  }

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

let remove t ~item =
  if item >= 0 && item < Array.length t.by_item then t.by_item.(item) <- no_replicas

let place_on t ~item ~replicas =
  let reps = Pdht_util.Sampling.sorted_distinct t.sampler replicas in
  ensure_item t item;
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
  ensure_item t item;
  t.by_item.(item) <-
    Pdht_util.Sampling.sample_sorted t.sampler rng ~k:(min repl t.total_peers)

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
