module Bitkey = Pdht_util.Bitkey
module Rng = Pdht_util.Rng

(* Flat-state Kademlia.  Ids double as their own int keys: [sorted_ids]
   holds the raw 62-bit ids in ascending order with [sorted_members]
   giving the owning member per position, which makes the id set an
   implicit binary trie — descending into the child that matches the
   query key's bit at each depth enumerates members in exactly
   increasing XOR distance, so k-NN ([closest_members]) and
   nearest-online ([responsible]) are O(k + log n) walks instead of a
   full sort / full scan.  A contacted member's routing-table answer
   uses the same geometry on its k-buckets: every entry of bucket [b]
   shares exactly [b] leading bits with the member, so the buckets fall
   into XOR-distance classes around the key and the closest
   [bucket_size] entries come from the first few classes: whole classes
   while they fit, then the closest entries of the next, with no
   full-table sort.  Lookups run on
   generation-stamped scratch owned by [t]: no per-lookup Hashtbls, no
   per-round candidate lists, no closures.

   Routing rows are flat.  Member [m]'s buckets [0 .. depth-1] sit
   back to back in one int array, [table]: bucket [b] starts at
   [(m * depth + b) * (bucket_size + 1)] with its length, then its
   [bucket_size] slots.  [depth] is 1 + the deepest bucket any member
   has slots in (the longest common prefix of two adjacent sorted ids),
   so no row stores the ~30 deeper buckets nobody can fill.  The live
   discipline's replacement caches use the same layout in a second
   array beside it.  [Bitkey.width] = 62 < 63, so a member's slotted,
   non-empty and touched-since-the-last-sweep buckets are each one int
   bitmask, and every walk over a member's buckets is a walk over set
   bits.  Each member's k-buckets live once; the frozen and live
   disciplines differ only in who writes them. *)

(* Live maintenance (opt-in): the state Maymounkov and Mazieres' rules
   keep beside the k-buckets — a per-bucket replacement cache, the
   refresh sweep's contact flags — and the counters the churn
   experiments read.  The buckets themselves are [t]'s, shared with the
   frozen discipline.  [None] = frozen: only repair and rejoin touch the
   tables. *)
type live = {
  cache : int array; (* replacement caches, laid out as [table]; oldest first *)
  touched : int array; (* member -> mask of buckets contacted since the last sweep *)
  probe_retries : int; (* a dead probe costs 1 + probe_retries messages *)
  mutable pending_probe_cost : int; (* contact-driven probes, undrained *)
  mutable probes : int;
  mutable probe_messages : int;
  mutable refresh_messages : int;
  mutable evictions : int;
  mutable promotions : int;
  mutable insertions : int;
  mutable cache_fills : int;
}

type t = {
  ids : Bitkey.t array; (* member -> id *)
  sorted_ids : int array; (* raw ids, ascending *)
  sorted_members : int array; (* member owning sorted_ids.(i) *)
  depth : int; (* buckets per row *)
  stride : int; (* bucket_size + 1: a bucket's length, then its slots *)
  (* member -> bucket -> [length; slot 0; ...]; live: slot 0 = least
     recently seen *)
  table : int array;
  (* member -> mask of the buckets whose id range holds another member
     (membership is fixed, so that never changes) *)
  slotted : int array;
  nonempty : int array; (* member -> mask of buckets with entries *)
  bucket_size : int;
  alpha : int;
  mutable live : live option;
  (* lookup contact accounting (both disciplines): how many contact
     attempts the iterative searches made, and how many hit a peer that
     turned out dead — the numerator of the stale-route rate. *)
  mutable contacts : int;
  mutable dead_contacts : int;
  (* per-lookup scratch; a slot is live iff its stamp equals the
     current generation *)
  mutable generation : int;
  cand_stamp : int array;
  contacted_stamp : int array;
  dead_stamp : int array;
  (* still-pending candidates and their distances to the key *)
  mutable cand_buf : int array;
  mutable cand_dist : int array;
  mutable cand_len : int;
  table_dist : int array; (* routing-table answer, ascending *)
  table_buf : int array;
  nonempty_buf : int array; (* maintenance: a member's non-empty buckets *)
  counts : int array; (* construction: eligible members per bucket *)
  batch_dist : int array; (* alpha smallest pending, ascending *)
  batch_buf : int array;
}

(* Index of the lowest set bit of a non-zero mask: six halvings. *)
let lowest_bit x =
  let x = ref x and p = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin
    x := !x lsr 32;
    p := 32
  end;
  if !x land 0xFFFF = 0 then begin
    x := !x lsr 16;
    p := !p + 16
  end;
  if !x land 0xFF = 0 then begin
    x := !x lsr 8;
    p := !p + 8
  end;
  if !x land 0xF = 0 then begin
    x := !x lsr 4;
    p := !p + 4
  end;
  if !x land 0x3 = 0 then begin
    x := !x lsr 2;
    p := !p + 2
  end;
  if !x land 0x1 = 0 then !p + 1 else !p

(* Index of the highest set bit of a non-zero mask below 2^62. *)
let highest_bit x =
  Bitkey.width - 1 - Bitkey.common_prefix_length (Bitkey.of_int x) (Bitkey.of_int 0)

let popcount x =
  let x = ref x and c = ref 0 in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let members t = Array.length t.ids
let id_of t m = t.ids.(m)

(* First position in [lo, hi) whose id has bit [depth] set (MSB-first).
   Within a segment sharing all bits above [depth], ascending id order
   puts every 0-bit id before every 1-bit id. *)
let split t lo hi depth =
  let bit = 1 lsl (Bitkey.width - 1 - depth) in
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.sorted_ids.(mid) land bit = 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Visit members in strictly increasing XOR distance from [key],
   stopping early when [f] returns [false].  At each trie level the
   child whose bit matches the key is exhausted first; ids are distinct,
   so every segment of two or more ids has a discriminating bit and the
   recursion terminates. *)
let rec visit_xor t keybits lo hi depth f =
  if lo >= hi then true
  else if hi - lo = 1 then f t.sorted_members.(lo)
  else begin
    let mid = split t lo hi depth in
    if mid = lo || mid = hi then visit_xor t keybits lo hi (depth + 1) f
    else if keybits land (1 lsl (Bitkey.width - 1 - depth)) <> 0 then
      if visit_xor t keybits mid hi (depth + 1) f then
        visit_xor t keybits lo mid (depth + 1) f
      else false
    else if visit_xor t keybits lo mid (depth + 1) f then
      visit_xor t keybits mid hi (depth + 1) f
    else false
  end

let visit_closest t key f =
  ignore (visit_xor t (Bitkey.to_int key) 0 (members t) 0 f)

(* The [k] members closest to [key] in XOR distance: the first [k]
   stops of the trie walk, already in increasing-distance order (the
   order the old full sort produced — XOR distances of distinct ids are
   distinct, so the ordering is unique). *)
let closest_members t key ~k =
  let n = members t in
  let k = min k n in
  if k < 0 then invalid_arg "Kademlia.closest_members: negative k";
  if k = 0 then [||]
  else begin
    let out = Array.make k 0 in
    let count = ref 0 in
    visit_closest t key (fun m ->
        out.(!count) <- m;
        incr count;
        !count < k);
    out
  end

(* Nearest online member = first online stop of the same walk, as a
   direct recursion (no per-lookup closure); -1 if everyone is
   offline. *)
let rec nearest_online t online keybits lo hi depth =
  if lo >= hi then -1
  else if hi - lo = 1 then
    let m = t.sorted_members.(lo) in
    if online m then m else -1
  else begin
    let mid = split t lo hi depth in
    if mid = lo || mid = hi then nearest_online t online keybits lo hi (depth + 1)
    else if keybits land (1 lsl (Bitkey.width - 1 - depth)) <> 0 then
      let m = nearest_online t online keybits mid hi (depth + 1) in
      if m >= 0 then m else nearest_online t online keybits lo mid (depth + 1)
    else
      let m = nearest_online t online keybits lo mid (depth + 1) in
      if m >= 0 then m else nearest_online t online keybits mid hi (depth + 1)
  end

let responsible t ~online key =
  let m = nearest_online t online (Bitkey.to_int key) 0 (members t) 0 in
  if m < 0 then None else Some m

type outcome = { responsible : int option; messages : int; hops : int }

(* Bucket [b] of member [m]: its length word; slot [i] follows at
   [+ 1 + i]. *)
let bucket_base t m b = ((m * t.depth) + b) * t.stride

let bucket_of t m other =
  Int.min (Bitkey.common_prefix_length t.ids.(m) t.ids.(other)) (Bitkey.width - 1)

(* [bucket_of t m other = b] for [other <> m], without the prefix
   search: the XOR of distinct ids has its highest set bit at position
   [width - 1 - b] exactly when they share [b] leading bits (for the
   last bucket, [b = width - 1], the XOR is then 1). *)
let in_bucket t m other b =
  Bitkey.xor_distance t.ids.(m) t.ids.(other) lsr (Bitkey.width - 1 - b) = 1

(* Reservoir-sample up to [bucket_size] members into each of member
   [m]'s common-prefix-length buckets: one pass over every other member.
   The first [bucket_size] eligible members fill a bucket; each later
   one, the [c]-th eligible, replaces the most recently placed entry
   with probability [bucket_size / c].  [counts] counts the eligible
   members per bucket; the filled prefix is then reversed so a bucket
   lists its entries most recent first.  A bucket has slots iff some
   member turned up eligible. *)
let sample_buckets rng t m =
  let k = t.bucket_size and tb = t.table and counts = t.counts in
  Array.fill counts 0 t.depth 0;
  let mine = t.ids.(m) in
  let row = m * t.depth in
  for other = 0 to Array.length t.ids - 1 do
    if other <> m then begin
      let b = Int.min (Bitkey.common_prefix_length mine t.ids.(other)) (Bitkey.width - 1) in
      let c = counts.(b) + 1 in
      counts.(b) <- c;
      let base = (row + b) * t.stride in
      if c <= k then tb.(base + c) <- other
      else if Rng.int rng c < k then tb.(base + k) <- other
    end
  done;
  let slotted = ref 0 in
  for b = 0 to t.depth - 1 do
    let c = counts.(b) in
    if c > 0 then slotted := !slotted lor (1 lsl b);
    let len = Int.min c k in
    let base = (row + b) * t.stride in
    tb.(base) <- len;
    for i = 1 to len / 2 do
      let x = tb.(base + i) in
      tb.(base + i) <- tb.(base + len + 1 - i);
      tb.(base + len + 1 - i) <- x
    done
  done;
  t.slotted.(m) <- !slotted;
  t.nonempty.(m) <- !slotted

let create rng ~members:n ?(bucket_size = 8) ?(alpha = 3) () =
  if n < 1 then invalid_arg "Kademlia.create: need >= 1 member";
  if bucket_size < 1 then invalid_arg "Kademlia.create: bucket_size must be >= 1";
  if alpha < 1 then invalid_arg "Kademlia.create: alpha must be >= 1";
  (* Bulk id draw with a sorted-array duplicate check instead of a
     boxed-key Hashtbl per peer.  A collision among n 62-bit draws has
     probability ~n^2/2^63, so the fix-up loop below effectively never
     runs and the RNG stream matches the old draw-until-fresh
     implementation in every collision-free run (the only runs that
     occur in practice). *)
  let ids = Array.init n (fun _ -> Bitkey.random rng) in
  let order = Array.init n Fun.id in
  let sort_order () =
    Array.sort
      (fun a b ->
        compare (Bitkey.to_int ids.(a)) (Bitkey.to_int ids.(b)))
      order
  in
  sort_order ();
  let rec dedup () =
    let clashed = ref false in
    for i = 1 to n - 1 do
      if Bitkey.equal ids.(order.(i)) ids.(order.(i - 1)) then begin
        clashed := true;
        (* redraw at the later member index, as the sequential
           implementation would have *)
        let victim = max order.(i) order.(i - 1) in
        ids.(victim) <- Bitkey.random rng
      end
    done;
    if !clashed then begin
      sort_order ();
      dedup ()
    end
  in
  dedup ();
  let sorted_ids = Array.make n 0 in
  let sorted_members = Array.make n 0 in
  for i = 0 to n - 1 do
    sorted_ids.(i) <- Bitkey.to_int ids.(order.(i));
    sorted_members.(i) <- order.(i)
  done;
  (* The deepest bucket anyone has slots in is the longest common
     prefix of two ids, and the longest pair is adjacent in id order. *)
  let deepest = ref 0 in
  for i = 1 to n - 1 do
    deepest :=
      Int.max !deepest (Bitkey.common_prefix_length ids.(order.(i - 1)) ids.(order.(i)))
  done;
  let depth = 1 + Int.min !deepest (Bitkey.width - 1) in
  let stride = bucket_size + 1 in
  let t =
    {
      ids;
      sorted_ids;
      sorted_members;
      depth;
      stride;
      table = Array.make (n * depth * stride) 0;
      slotted = Array.make n 0;
      nonempty = Array.make n 0;
      bucket_size;
      alpha;
      live = None;
      contacts = 0;
      dead_contacts = 0;
      generation = 0;
      cand_stamp = Array.make n 0;
      contacted_stamp = Array.make n 0;
      dead_stamp = Array.make n 0;
      cand_buf = Array.make 64 0;
      cand_dist = Array.make 64 0;
      cand_len = 0;
      table_dist = Array.make bucket_size 0;
      table_buf = Array.make bucket_size 0;
      nonempty_buf = Array.make depth 0;
      counts = Array.make depth 0;
      batch_dist = Array.make alpha 0;
      batch_buf = Array.make alpha 0;
    }
  in
  (* Global construction: one O(n^2) reservoir pass with a cheap inner
     body; fine at simulation scale. *)
  for m = 0 to n - 1 do
    sample_buckets rng t m
  done;
  t

(* Switch the tables to live maintenance: the current entries become the
   initial LRS..MRS order, and each bucket gets an empty replacement
   cache of [bucket_size] slots.  No RNG is consumed: enabling live
   routing after [create] leaves every stream exactly where the frozen
   path would have it. *)
let enable_live_routing ?(probe_retries = 3) t =
  if probe_retries < 0 then
    invalid_arg "Kademlia.enable_live_routing: negative probe_retries";
  if t.live = None then
    t.live <-
      Some
        {
          cache = Array.make (Array.length t.table) 0;
          touched = Array.make (members t) 0;
          probe_retries;
          pending_probe_cost = 0;
          probes = 0;
          probe_messages = 0;
          refresh_messages = 0;
          evictions = 0;
          promotions = 0;
          insertions = 0;
          cache_fills = 0;
        }

(* Slot index of [peer] among the [len] slots of the bucket at [base]
   of [a] ([table] or a cache), or -1. *)
let slot_of (a : int array) base len peer =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < len do
    if a.(base + 1 + !i) = peer then found := !i;
    incr i
  done;
  !found

(* Remove slot [i] of the [len] at [base], keeping order (shift the
   tail left); the caller rewrites the length or the last slot. *)
let remove_slot (a : int array) base len i =
  for j = base + 1 + i to base + len - 1 do
    a.(j) <- a.(j + 1)
  done

let set_len t m b base len =
  t.table.(base) <- len;
  if len = 0 then t.nonempty.(m) <- t.nonempty.(m) land lnot (1 lsl b)
  else t.nonempty.(m) <- t.nonempty.(m) lor (1 lsl b)

let touch lv m b = lv.touched.(m) <- lv.touched.(m) lor (1 lsl b)

(* Append at the most-recently-seen end of the replacement cache at
   [base], displacing the oldest entry when all [bucket_size] slots are
   taken. *)
let cache_add t lv base peer =
  let c = lv.cache in
  let len = c.(base) in
  let i = slot_of c base len peer in
  if i >= 0 then begin
    remove_slot c base len i;
    c.(base + len) <- peer
  end
  else if len < t.bucket_size then begin
    c.(base + 1 + len) <- peer;
    c.(base) <- len + 1
  end
  else begin
    remove_slot c base len 0;
    c.(base + len) <- peer
  end

(* Pop the most recently cached entry of the bucket, or -1. *)
let cache_pop lv base =
  let len = lv.cache.(base) in
  if len = 0 then -1
  else begin
    lv.cache.(base) <- len - 1;
    lv.cache.(base + len)
  end

let cache_remove lv base peer =
  let c = lv.cache in
  let len = c.(base) in
  let i = slot_of c base len peer in
  if i >= 0 then begin
    remove_slot c base len i;
    c.(base) <- len - 1
  end

(* Message cost of one liveness probe: an alive entry answers the first
   attempt; a dead one silently eats the whole retry ladder. *)
let probe_cost lv ~alive = if alive then 1 else 1 + lv.probe_retries

(* [owner] just heard from [peer] (a lookup contact, either direction).
   Apply the Kademlia rule: promote if present, insert if room,
   otherwise liveness-probe the least-recently-seen entry and evict it
   only if dead — a proven-alive peer is never displaced, the property
   heavy-tailed session traces reward; the newcomer goes to the
   replacement cache instead.  The probe is a real maintenance message:
   an alive entry costs one probe, a dead one the whole timeout ladder;
   both accrue in [pending_probe_cost] until the maintenance tick
   drains them. *)
let note_contact t lv ~online ~owner ~peer =
  if owner <> peer then begin
    let b = bucket_of t owner peer in
    let base = bucket_base t owner b in
    let tb = t.table in
    let len = tb.(base) in
    let i = slot_of tb base len peer in
    touch lv owner b;
    if i >= 0 then begin
      remove_slot tb base len i;
      tb.(base + len) <- peer;
      lv.promotions <- lv.promotions + 1
    end
    else if len < t.bucket_size then begin
      tb.(base + 1 + len) <- peer;
      set_len t owner b base (len + 1);
      lv.insertions <- lv.insertions + 1
    end
    else begin
      let lrs = tb.(base + 1) in
      let alive = online lrs in
      let cost = probe_cost lv ~alive in
      lv.probes <- lv.probes + 1;
      lv.probe_messages <- lv.probe_messages + cost;
      lv.pending_probe_cost <- lv.pending_probe_cost + cost;
      remove_slot tb base len 0;
      if alive then begin
        tb.(base + len) <- lrs;
        cache_add t lv base peer
      end
      else begin
        tb.(base + len) <- peer;
        lv.evictions <- lv.evictions + 1
      end
    end
  end

(* A lookup contact to [peer] timed out: route around it.  With a
   replacement cached, evict and back-fill; with an empty cache, KEEP
   the entry but demote it to least-recently-seen — Kademlia never
   discards a route it cannot replace (a stale route beats a shorter
   table, and under session churn the peer usually comes back).  The
   demoted entry is the next liveness probe's first target. *)
let note_dead t lv ~owner ~peer =
  if owner <> peer then begin
    let b = bucket_of t owner peer in
    let base = bucket_base t owner b in
    let tb = t.table in
    let len = tb.(base) in
    cache_remove lv base peer;
    let i = slot_of tb base len peer in
    if i >= 0 then begin
      touch lv owner b;
      let fill = cache_pop lv base in
      if fill >= 0 then begin
        remove_slot tb base len i;
        tb.(base + len) <- fill;
        lv.cache_fills <- lv.cache_fills + 1
      end
      else begin
        for j = base + 1 + i downto base + 2 do
          tb.(j) <- tb.(j - 1)
        done;
        tb.(base + 1) <- peer
      end
    end
  end

type live_stats = {
  probes : int;
  probe_messages : int;
  refresh_messages : int;
  evictions : int;
  promotions : int;
  insertions : int;
  cache_fills : int;
}

let live_stats t =
  Option.map
    (fun (lv : live) ->
      {
        probes = lv.probes;
        probe_messages = lv.probe_messages;
        refresh_messages = lv.refresh_messages;
        evictions = lv.evictions;
        promotions = lv.promotions;
        insertions = lv.insertions;
        cache_fills = lv.cache_fills;
      })
    t.live

let contact_stats t = (t.contacts, t.dead_contacts)

let drain_probe_cost t =
  match t.live with
  | None -> 0
  | Some lv ->
      let c = lv.pending_probe_cost in
      lv.pending_probe_cost <- 0;
      c

(* One refresh pass: every online member re-looks-up each bucket range
   that saw no contact since the previous sweep (and has slots — ranges
   nobody occupies are never refreshable), in ascending bucket order.
   A refresh costs the lookup's [alpha] probes plus one FIND_NODE-style
   exchange per fresh entry learned; learned entries are live members
   of the range, found by bounded sampling as in the frozen repair.
   The samplers test a draw's range before asking [online] (a pure
   predicate, so the order changes no draw): most draws fall outside a
   deep range, and the range test is a few instructions. *)
let refresh_sweep t rng ~online =
  match t.live with
  | None -> 0
  | Some lv ->
      let n = members t in
      let tb = t.table in
      let messages = ref 0 in
      for m = 0 to n - 1 do
        if online m then begin
          let stale = ref (t.slotted.(m) land lnot lv.touched.(m)) in
          while !stale <> 0 do
            let b = lowest_bit !stale in
            stale := !stale land (!stale - 1);
            let base = bucket_base t m b in
            messages := !messages + t.alpha;
            let missing = t.bucket_size - tb.(base) in
            let attempts = ref (30 * Int.max 1 missing) in
            while tb.(base) < t.bucket_size && !attempts > 0 do
              decr attempts;
              let cand = Rng.int rng n in
              let len = tb.(base) in
              if
                cand <> m
                && in_bucket t m cand b
                && online cand
                && slot_of tb base len cand < 0
              then begin
                tb.(base + 1 + len) <- cand;
                set_len t m b base (len + 1);
                incr messages
              end
            done
          done;
          lv.touched.(m) <- 0
        end
      done;
      lv.refresh_messages <- lv.refresh_messages + !messages;
      !messages

(* Offer member [m] at distance [d] to the ascending [dist]/[buf]
   prefix holding the [filled] closest offered so far, keeping at most
   [need]; returns the new fill.  One insertion-sort step in place; an
   entry offered twice (the frozen repair can duplicate one) sits next
   to its twin, so it counts against [need] as in a full sort. *)
let insert_closest (dist : int array) (buf : int array) ~need filled (d : int) m =
  if filled < need || d < dist.(need - 1) then begin
    let p = ref (Int.min filled (need - 1)) in
    while !p > 0 && dist.(!p - 1) > d do
      dist.(!p) <- dist.(!p - 1);
      buf.(!p) <- buf.(!p - 1);
      decr p
    done;
    dist.(!p) <- d;
    buf.(!p) <- m;
    Int.min (filled + 1) need
  end
  else filled

(* Make member [m], at distance [d] from the key, a candidate of the
   current lookup unless it already is one. *)
let add_candidate t m d =
  if t.cand_stamp.(m) <> t.generation then begin
    t.cand_stamp.(m) <- t.generation;
    if t.cand_len = Array.length t.cand_buf then begin
      let grow a =
        let bigger = Array.make (2 * t.cand_len) 0 in
        Array.blit a 0 bigger 0 t.cand_len;
        bigger
      in
      t.cand_buf <- grow t.cand_buf;
      t.cand_dist <- grow t.cand_dist
    end;
    t.cand_buf.(t.cand_len) <- m;
    t.cand_dist.(t.cand_len) <- d;
    t.cand_len <- t.cand_len + 1
  end

(* Offer the [len] entries at [base] to the class's [need] closest so
   far, [filled] of them in [table_dist] / [table_buf]; returns the new
   fill.  {!add_taken} then makes them candidates. *)
let take_closest t key ~need ~filled base len =
  let tb = t.table in
  let filled = ref filled in
  for j = base + 1 to base + len do
    let m = tb.(j) in
    filled :=
      insert_closest t.table_dist t.table_buf ~need !filled (Bitkey.xor_distance key t.ids.(m)) m
  done;
  !filled

let add_all t key base len =
  let tb = t.table in
  for j = base + 1 to base + len do
    let m = tb.(j) in
    add_candidate t m (Bitkey.xor_distance key t.ids.(m))
  done

let add_taken t filled =
  for i = 0 to filled - 1 do
    add_candidate t t.table_buf.(i) t.table_dist.(i)
  done

(* Make the closest [need] entries of [member]'s buckets in [mask],
   taken as one class, candidates; returns how many it took.  A class
   that fits is taken whole, unsorted: the lookup's batch choice
   depends only on which members are candidates, never on their
   order. *)
let take_class t key member ~need mask =
  let total = ref 0 in
  let rest = ref mask in
  while !rest <> 0 do
    total := !total + t.table.(bucket_base t member (lowest_bit !rest));
    rest := !rest land (!rest - 1)
  done;
  rest := mask;
  if !total <= need then
    while !rest <> 0 do
      let base = bucket_base t member (lowest_bit !rest) in
      rest := !rest land (!rest - 1);
      add_all t key base t.table.(base)
    done
  else begin
    let filled = ref 0 in
    while !rest <> 0 do
      let base = bucket_base t member (lowest_bit !rest) in
      rest := !rest land (!rest - 1);
      filled := take_closest t key ~need ~filled:!filled base t.table.(base)
    done;
    add_taken t !filled;
    total := !filled
  end;
  !total

(* A member's answer to "whom do you know near [key]?": its closest
   [bucket_size] bucket entries, made candidates.  With [c] =
   cpl(member, key), an entry of bucket [b < c] differs from the key
   first at bit [b]; an entry of any bucket deeper than [c] differs
   first at bit [c]; and an entry of bucket [c] agrees with the key
   through bit [c].  So the classes, closest first, are bucket [c], all
   buckets deeper than [c] together, then buckets [c-1] down to [0]
   (when the key is the member's own id, [c] = width: buckets [width-1]
   down to [0]).  Taking whole classes while they fit and the closest
   entries of the first that does not gives exactly the head of the
   fully sorted table.  Only non-empty buckets are visited: each class
   is a slice of the member's non-empty mask, and a class that fits
   needs no distance order at all. *)
let answer_from_table t key member =
  let quota = t.bucket_size in
  let c = Bitkey.common_prefix_length t.ids.(member) key in
  let mask = t.nonempty.(member) in
  let taken = ref 0 in
  let below = ref mask in
  if c < Bitkey.width then begin
    if mask land (1 lsl c) <> 0 then taken := take_class t key member ~need:quota (1 lsl c);
    if !taken < quota then begin
      let deeper = mask land lnot ((2 lsl c) - 1) in
      if deeper <> 0 then
        taken := !taken + take_class t key member ~need:(quota - !taken) deeper
    end;
    below := mask land ((1 lsl c) - 1)
  end;
  while !taken < quota && !below <> 0 do
    let b = highest_bit !below in
    below := !below lxor (1 lsl b);
    taken := !taken + take_class t key member ~need:(quota - !taken) (1 lsl b)
  done

let lookup ?span ?deliver t ~online ~source ~key =
  if source < 0 || source >= members t then invalid_arg "Kademlia.lookup: bad source";
  if not (online source) then { responsible = None; messages = 0; hops = 0 }
  else
    let target = nearest_online t online (Bitkey.to_int key) 0 (members t) 0 in
    if target < 0 then { responsible = None; messages = 0; hops = 0 }
    else begin
      let messages = ref 0 in
      let hops = ref 0 in
      t.generation <- t.generation + 1;
      let gen = t.generation in
      t.cand_len <- 0;
      t.contacted_stamp.(source) <- gen;
      answer_from_table t key source;
      let best_online = ref source in
      let best_dist = ref (Bitkey.xor_distance key t.ids.(source)) in
      let finished = ref (source = target) in
      while not !finished do
        (* Up to alpha closest uncontacted, un-dead candidates, in
           increasing distance (the head of the old sorted pending
           list — XOR distances of distinct ids never tie, so the batch
           does not depend on candidate order).  Every candidate of a
           batch ends the round contacted or dead, so the scan drops
           those from the pending list as it passes them. *)
        let batch_len = ref 0 in
        let kept = ref 0 in
        for idx = 0 to t.cand_len - 1 do
          let m = t.cand_buf.(idx) in
          if t.contacted_stamp.(m) <> gen && t.dead_stamp.(m) <> gen then begin
            let d = t.cand_dist.(idx) in
            t.cand_buf.(!kept) <- m;
            t.cand_dist.(!kept) <- d;
            incr kept;
            batch_len := insert_closest t.batch_dist t.batch_buf ~need:t.alpha !batch_len d m
          end
        done;
        t.cand_len <- !kept;
        if !batch_len = 0 then finished := true
        else begin
          incr hops;
          for i = 0 to !batch_len - 1 do
            let m = t.batch_buf.(i) in
            incr messages;
            t.contacts <- t.contacts + 1;
            (* The iterative caller contacts each candidate directly;
               under the network model that contact is one RPC
               (consulted only for live candidates — offline ones
               already pay their timeout message), and an exhausted
               retry budget makes the candidate look dead —
               Kademlia's native tolerance to unresponsive nodes, no
               abort needed. *)
            if
              online m
              && (match deliver with None -> true | Some d -> d ~span ~src:source ~dst:m)
            then begin
              t.contacted_stamp.(m) <- gen;
              if t.batch_dist.(i) < !best_dist then begin
                best_online := m;
                best_dist := t.batch_dist.(i)
              end;
              answer_from_table t key m;
              (* Living tables learn from the contact in both
                 directions, as real FIND_NODE traffic does. *)
              match t.live with
              | Some lv ->
                  note_contact t lv ~online ~owner:source ~peer:m;
                  note_contact t lv ~online ~owner:m ~peer:source
              | None -> ()
            end
            else begin
              t.dead_stamp.(m) <- gen;
              t.dead_contacts <- t.dead_contacts + 1;
              match t.live with
              | Some lv -> note_dead t lv ~owner:source ~peer:m
              | None -> ()
            end
          done;
          if !best_online = target then finished := true
        end
      done;
      let result = if !best_online = target then Some target else None in
      { responsible = result; messages = !messages; hops = !hops }
    end

let bucket_count t m = popcount t.nonempty.(m)

let routing_table_size t m =
  let total = ref 0 in
  for b = 0 to t.depth - 1 do
    total := !total + t.table.(bucket_base t m b)
  done;
  !total

(* Crash-stop state loss: empty every k-bucket of [peer].  Lookups from
   the member then start with no candidates and fail immediately (miss
   path); [probe_and_repair] only touches non-empty buckets, so only
   {!rebuild_routes} restores the table. *)
let forget_routes t ~peer =
  for b = 0 to t.depth - 1 do
    t.table.(bucket_base t peer b) <- 0
  done;
  t.nonempty.(peer) <- 0;
  Option.iter
    (fun lv ->
      for b = 0 to t.depth - 1 do
        lv.cache.(bucket_base t peer b) <- 0
      done;
      lv.touched.(peer) <- 0)
    t.live

(* Rejoin: repopulate [peer]'s k-buckets with the construction-time
   reservoir pass (uniform bucket membership among eligible members).
   One message per entry learned — the FIND_NODE traffic of a Kademlia
   join.  Live mode also empties the replacement caches and counts every
   bucket as just contacted. *)
let rebuild_routes t rng ~peer =
  sample_buckets rng t peer;
  Option.iter
    (fun lv ->
      for b = 0 to t.depth - 1 do
        lv.cache.(bucket_base t peer b) <- 0
      done;
      lv.touched.(peer) <- t.slotted.(peer))
    t.live;
  routing_table_size t peer

(* Fill [nonempty_buf] with the indices of [peer]'s non-empty buckets,
   ascending; returns how many. *)
let collect_nonempty t peer =
  let count = ref 0 in
  let rest = ref t.nonempty.(peer) in
  while !rest <> 0 do
    t.nonempty_buf.(!count) <- lowest_bit !rest;
    rest := !rest land (!rest - 1);
    incr count
  done;
  !count

(* Living-table maintenance: each budgeted probe liveness-checks the
   least-recently-seen entry of a random non-empty bucket — the entry
   the Kademlia rule says to distrust first.  An alive entry rotates to
   most-recently-seen for one message; a dead one eats the full retry
   ladder, is evicted, and the bucket back-fills from the replacement
   cache.  The return value also drains the contact-driven probe cost
   accrued by lookups since the last tick, so every probe message ends
   up charged to the maintenance account exactly once. *)
let live_probe_and_repair t lv rng ~online ~peer ~probes =
  let tb = t.table in
  let count = collect_nonempty t peer in
  let sent = ref (drain_probe_cost t) in
  if count > 0 then begin
    for _ = 1 to probes do
      let b = t.nonempty_buf.(Rng.int rng count) in
      let base = bucket_base t peer b in
      let len = tb.(base) in
      if len > 0 then begin
        let lrs = tb.(base + 1) in
        let alive = online lrs in
        let cost = probe_cost lv ~alive in
        lv.probes <- lv.probes + 1;
        lv.probe_messages <- lv.probe_messages + cost;
        sent := !sent + cost;
        touch lv peer b;
        remove_slot tb base len 0;
        if alive then tb.(base + len) <- lrs
        else begin
          (* The full retry ladder confirmed the entry dead — unlike
             a single lookup timeout ([note_dead] demotes but keeps),
             this is strong enough evidence to evict outright.  Refill
             from the replacement cache if possible, else learn a live
             member of the range (the shared [MaCa03] repair
             discipline, one exchange per entry learned).  If the
             range offers no live member right now the bucket stays
             short until a later contact or refresh sweep back-fills
             it. *)
          lv.evictions <- lv.evictions + 1;
          let fill = cache_pop lv base in
          if fill >= 0 then begin
            tb.(base + len) <- fill;
            lv.cache_fills <- lv.cache_fills + 1
          end
          else begin
            let n = members t in
            let attempts = ref 30 in
            let found = ref false in
            while (not !found) && !attempts > 0 do
              decr attempts;
              let cand = Rng.int rng n in
              if
                cand <> peer
                && in_bucket t peer cand b
                && online cand
                && slot_of tb base (len - 1) cand < 0
              then begin
                tb.(base + len) <- cand;
                incr sent;
                found := true
              end
            done;
            if not !found then set_len t peer b base (len - 1)
          end
        end
      end
    done
  end;
  !sent

let probe_and_repair t rng ~online ~peer ~probes =
  if probes < 0 then invalid_arg "Kademlia.probe_and_repair: negative probes";
  match t.live with
  | Some lv -> live_probe_and_repair t lv rng ~online ~peer ~probes
  | None ->
  let count = collect_nonempty t peer in
  if count = 0 then 0
  else begin
    let tb = t.table in
    for _ = 1 to probes do
      let b_idx = t.nonempty_buf.(Rng.int rng count) in
      let base = bucket_base t peer b_idx in
      let slot = base + 1 + Rng.int rng tb.(base) in
      if not (online tb.(slot)) then begin
        (* Replace with a random online member sharing the same bucket
           (common-prefix-length) if one exists; bounded sampling keeps
           the repair cheap. *)
        let n = members t in
        let rec attempt k =
          if k = 0 then ()
          else
            let cand = Rng.int rng n in
            if cand <> peer && in_bucket t peer cand b_idx && online cand then tb.(slot) <- cand
            else attempt (k - 1)
        in
        attempt 30
      end
    done;
    probes
  end
