(* Verbatim copy of [Pdht_dht.Kademlia] as it was with jagged
   per-member tables: [int array array array] buckets with [blen]
   occupancy rows, and the live discipline's replacement cache,
   [clen] rows and [touched] flags in the same shape.  test_scale's
   "kademlia matches the jagged-table reference" drives it beside the
   flat-row module with the same seeds and operations and requires
   equal outcomes, counters, table sizes and next RNG draw after every
   step.  Do not edit it to follow the library. *)

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
   [bucket_size] entries come from the first few classes, each sorted
   in place, with no full-table sort.  Lookups run on
   generation-stamped scratch owned by [t]: no per-lookup Hashtbls, no
   per-round candidate lists.  Each member's k-buckets live once, in
   [buckets]/[blen]; the frozen and live disciplines differ only in who
   writes them. *)
(* Live maintenance (opt-in): the state Maymounkov and Mazieres' rules
   keep beside the k-buckets — a per-bucket replacement cache, the
   refresh sweep's contact flags — and the counters the churn
   experiments read.  The buckets themselves are [t]'s, shared with the
   frozen discipline.  [None] = frozen: only repair and rejoin touch the
   tables. *)
type live = {
  cache : int array array array; (* replacement cache, oldest first *)
  clen : int array array;
  touched : bool array array; (* contact since the last refresh sweep *)
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
  (* member -> cpl bucket -> [bucket_size] slots, or [||] when no other
     member falls in the bucket's id range (membership is fixed, so
     that never changes) *)
  buckets : int array array array;
  blen : int array array; (* occupancy; live: slot 0 = least recently seen *)
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
  mutable cand_buf : int array;
  mutable cand_len : int;
  table_dist : int array; (* routing-table answer, ascending *)
  table_buf : int array;
  nonempty_buf : int array; (* maintenance: a member's non-empty buckets *)
  batch_dist : int array; (* alpha smallest pending, ascending *)
  batch_buf : int array;
}

let members t = Array.length t.ids
let id_of t m = t.ids.(m)

let distance key id = Bitkey.xor_distance key id

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

(* Nearest online member = first online stop of the same walk. *)
let responsible t ~online key =
  let best = ref (-1) in
  visit_closest t key (fun m ->
      if online m then begin
        best := m;
        false
      end
      else true);
  if !best < 0 then None else Some !best

(* Reservoir-sample up to [bucket_size] members into each of member
   [m]'s common-prefix-length buckets: one pass over every other member.
   The first [bucket_size] eligible members fill a bucket; each later
   one, the [c]-th eligible, replaces the most recently placed entry
   with probability [bucket_size / c].  [lens] counts the eligible
   members, then keeps the occupancy; the filled prefix is reversed so a
   bucket lists its entries most recent first.  A bucket gets its slots
   when its first eligible member turns up. *)
let sample_buckets rng ids ~bucket_size buckets lens m =
  Array.fill lens 0 Bitkey.width 0;
  let mine = ids.(m) in
  for other = 0 to Array.length ids - 1 do
    if other <> m then begin
      let b = min (Bitkey.common_prefix_length mine ids.(other)) (Bitkey.width - 1) in
      let c = lens.(b) + 1 in
      lens.(b) <- c;
      if c = 1 && Array.length buckets.(b) = 0 then buckets.(b) <- Array.make bucket_size 0;
      if c <= bucket_size then buckets.(b).(c - 1) <- other
      else if Rng.int rng c < bucket_size then buckets.(b).(bucket_size - 1) <- other
    end
  done;
  for b = 0 to Bitkey.width - 1 do
    let len = min lens.(b) bucket_size in
    lens.(b) <- len;
    let arr = buckets.(b) in
    for i = 0 to (len / 2) - 1 do
      let x = arr.(i) in
      arr.(i) <- arr.(len - 1 - i);
      arr.(len - 1 - i) <- x
    done
  done

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
  (* Global construction: one O(n^2) reservoir pass with a cheap inner
     body; fine at simulation scale. *)
  let buckets = Array.init n (fun _ -> Array.make Bitkey.width [||]) in
  let blen = Array.init n (fun _ -> Array.make Bitkey.width 0) in
  for m = 0 to n - 1 do
    sample_buckets rng ids ~bucket_size buckets.(m) blen.(m) m
  done;
  {
    ids;
    sorted_ids;
    sorted_members;
    buckets;
    blen;
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
    cand_len = 0;
    table_dist = Array.make bucket_size 0;
    table_buf = Array.make bucket_size 0;
    nonempty_buf = Array.make Bitkey.width 0;
    batch_dist = Array.make alpha 0;
    batch_buf = Array.make alpha 0;
  }

let bucket_of t m other =
  min (Bitkey.common_prefix_length t.ids.(m) t.ids.(other)) (Bitkey.width - 1)

let live_routing t = t.live <> None

(* Switch the tables to live maintenance: the current entries become the
   initial LRS..MRS order, and each bucket with slots gets a replacement
   cache of the same size.  No RNG is consumed: enabling live routing
   after [create] leaves every stream exactly where the frozen path
   would have it. *)
let enable_live_routing ?(probe_retries = 3) t =
  if probe_retries < 0 then
    invalid_arg "Kademlia.enable_live_routing: negative probe_retries";
  if t.live = None then begin
    let n = members t in
    t.live <-
      Some
        {
          cache = Array.map (Array.map (fun slots -> Array.make (Array.length slots) 0)) t.buckets;
          clen = Array.init n (fun _ -> Array.make Bitkey.width 0);
          touched = Array.init n (fun _ -> Array.make Bitkey.width false);
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
  end

(* Index of [peer] in the first [len] slots of [arr], or -1. *)
let slot_of arr len peer =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < len do
    if arr.(!i) = peer then found := !i;
    incr i
  done;
  !found

(* Remove slot [i], keeping order (shift the tail left). *)
let remove_slot arr len i =
  Array.blit arr (i + 1) arr i (len - i - 1)

(* Append at the most-recently-seen end of the replacement cache,
   displacing the oldest entry when full. *)
let cache_add lv ~owner ~bucket peer =
  let arr = lv.cache.(owner).(bucket) in
  let len = lv.clen.(owner).(bucket) in
  let i = slot_of arr len peer in
  if i >= 0 then begin
    remove_slot arr len i;
    arr.(len - 1) <- peer
  end
  else if len < Array.length arr then begin
    arr.(len) <- peer;
    lv.clen.(owner).(bucket) <- len + 1
  end
  else begin
    remove_slot arr len 0;
    arr.(len - 1) <- peer
  end

(* Pop the most recently cached entry of the bucket, if any. *)
let cache_pop lv ~owner ~bucket =
  let len = lv.clen.(owner).(bucket) in
  if len = 0 then None
  else begin
    lv.clen.(owner).(bucket) <- len - 1;
    Some lv.cache.(owner).(bucket).(len - 1)
  end

let cache_remove lv ~owner ~bucket peer =
  let arr = lv.cache.(owner).(bucket) in
  let len = lv.clen.(owner).(bucket) in
  let i = slot_of arr len peer in
  if i >= 0 then begin
    remove_slot arr len i;
    lv.clen.(owner).(bucket) <- len - 1
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
    let arr = t.buckets.(owner).(b) in
    let len = t.blen.(owner).(b) in
    let i = slot_of arr len peer in
    lv.touched.(owner).(b) <- true;
    if i >= 0 then begin
      remove_slot arr len i;
      arr.(len - 1) <- peer;
      lv.promotions <- lv.promotions + 1
    end
    else if len < t.bucket_size then begin
      arr.(len) <- peer;
      t.blen.(owner).(b) <- len + 1;
      lv.insertions <- lv.insertions + 1
    end
    else begin
      let lrs = arr.(0) in
      let alive = online lrs in
      let cost = probe_cost lv ~alive in
      lv.probes <- lv.probes + 1;
      lv.probe_messages <- lv.probe_messages + cost;
      lv.pending_probe_cost <- lv.pending_probe_cost + cost;
      remove_slot arr len 0;
      if alive then begin
        arr.(len - 1) <- lrs;
        cache_add lv ~owner ~bucket:b peer
      end
      else begin
        arr.(len - 1) <- peer;
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
    let arr = t.buckets.(owner).(b) in
    let len = t.blen.(owner).(b) in
    cache_remove lv ~owner ~bucket:b peer;
    let i = slot_of arr len peer in
    if i >= 0 then begin
      lv.touched.(owner).(b) <- true;
      match cache_pop lv ~owner ~bucket:b with
      | Some fill ->
          remove_slot arr len i;
          arr.(len - 1) <- fill;
          lv.cache_fills <- lv.cache_fills + 1
      | None ->
          for j = i downto 1 do
            arr.(j) <- arr.(j - 1)
          done;
          arr.(0) <- peer
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
   nobody occupies are never refreshable).
   A refresh costs the lookup's [alpha] probes plus one FIND_NODE-style
   exchange per fresh entry learned; learned entries are live members
   of the range, found by bounded sampling as in the frozen repair. *)
let refresh_sweep t rng ~online =
  match t.live with
  | None -> 0
  | Some lv ->
      let n = members t in
      let messages = ref 0 in
      for m = 0 to n - 1 do
        if online m then begin
          let tb = lv.touched.(m) in
          let lens = t.blen.(m) in
          for b = 0 to Bitkey.width - 1 do
            let arr = t.buckets.(m).(b) in
            if Array.length arr > 0 && not tb.(b) then begin
              messages := !messages + t.alpha;
              let missing = t.bucket_size - lens.(b) in
              let attempts = ref (30 * max 1 missing) in
              while lens.(b) < t.bucket_size && !attempts > 0 do
                decr attempts;
                let cand = Rng.int rng n in
                if
                  cand <> m && online cand
                  && bucket_of t m cand = b
                  && slot_of arr lens.(b) cand < 0
                then begin
                  arr.(lens.(b)) <- cand;
                  lens.(b) <- lens.(b) + 1;
                  incr messages
                end
              done
            end;
            tb.(b) <- false
          done
        end
      done;
      lv.refresh_messages <- lv.refresh_messages + !messages;
      !messages

type outcome = { responsible : int option; messages : int; hops : int }

(* Offer member [m] at distance [d] to the ascending [dist]/[buf]
   prefix holding the [filled] closest offered so far, keeping at most
   [need]; returns the new fill.  One insertion-sort step in place; an
   entry offered twice (the frozen repair can duplicate one) sits next
   to its twin, so it counts against [need] as in a full sort. *)
let insert_closest (dist : int array) (buf : int array) ~need filled (d : int) m =
  if filled < need || d < dist.(need - 1) then begin
    let p = ref (min filled (need - 1)) in
    while !p > 0 && dist.(!p - 1) > d do
      dist.(!p) <- dist.(!p - 1);
      buf.(!p) <- buf.(!p - 1);
      decr p
    done;
    dist.(!p) <- d;
    buf.(!p) <- m;
    min (filled + 1) need
  end
  else filled

(* Offer buckets [lo..hi] as one class and pass its closest [need]
   entries to [add], nearest first; returns how many it passed. *)
let take_class t key member add ~need lo hi =
  let filled = ref 0 in
  for b = lo to hi do
    let arr = t.buckets.(member).(b) in
    for i = 0 to t.blen.(member).(b) - 1 do
      let m = arr.(i) in
      filled := insert_closest t.table_dist t.table_buf ~need !filled (distance key t.ids.(m)) m
    done
  done;
  for i = 0 to !filled - 1 do
    add t.table_buf.(i)
  done;
  !filled

(* A member's answer to "whom do you know near [key]?": its closest
   [bucket_size] bucket entries, nearest first, passed to [add].  With
   [c] = cpl(member, key), an entry of bucket [b < c] differs from the
   key first at bit [b]; an entry of any bucket deeper than [c] differs
   first at bit [c]; and an entry of bucket [c] agrees with the key
   through bit [c].  So the classes, closest first, are bucket [c], all
   buckets deeper than [c] together, then buckets [c-1] down to [0]
   (when the key is the member's own id, [c] = width: buckets [width-1]
   down to [0]).  Sorting each class and stopping at the quota gives
   exactly the head of the fully sorted table. *)
let answer_from_table t key member add =
  let quota = t.bucket_size in
  let c = Bitkey.common_prefix_length t.ids.(member) key in
  let taken = ref 0 in
  let b = ref (Bitkey.width - 1) in
  if c < Bitkey.width then begin
    taken := take_class t key member add ~need:quota c c;
    if !taken < quota then
      taken :=
        !taken + take_class t key member add ~need:(quota - !taken) (c + 1) (Bitkey.width - 1);
    b := c - 1
  end;
  while !taken < quota && !b >= 0 do
    taken := !taken + take_class t key member add ~need:(quota - !taken) !b !b;
    decr b
  done

let lookup ?span ?deliver t ~online ~source ~key =
  if source < 0 || source >= members t then invalid_arg "Kademlia.lookup: bad source";
  if not (online source) then { responsible = None; messages = 0; hops = 0 }
  else
    match responsible t ~online key with
    | None -> { responsible = None; messages = 0; hops = 0 }
    | Some target ->
        let messages = ref 0 in
        let hops = ref 0 in
        t.generation <- t.generation + 1;
        let gen = t.generation in
        t.cand_len <- 0;
        let add_candidate m =
          if t.cand_stamp.(m) <> gen then begin
            t.cand_stamp.(m) <- gen;
            if t.cand_len = Array.length t.cand_buf then begin
              let bigger = Array.make (2 * t.cand_len) 0 in
              Array.blit t.cand_buf 0 bigger 0 t.cand_len;
              t.cand_buf <- bigger
            end;
            t.cand_buf.(t.cand_len) <- m;
            t.cand_len <- t.cand_len + 1
          end
        in
        t.contacted_stamp.(source) <- gen;
        answer_from_table t key source add_candidate;
        let best_online = ref source in
        let finished = ref (source = target) in
        while not !finished do
          (* Up to alpha closest uncontacted, un-dead candidates, in
             increasing distance (the head of the old sorted pending
             list — XOR distances of distinct ids never tie). *)
          let batch_len = ref 0 in
          for idx = 0 to t.cand_len - 1 do
            let m = t.cand_buf.(idx) in
            if t.contacted_stamp.(m) <> gen && t.dead_stamp.(m) <> gen then
              batch_len :=
                insert_closest t.batch_dist t.batch_buf ~need:t.alpha !batch_len
                  (distance key t.ids.(m)) m
          done;
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
                if distance key t.ids.(m) < distance key t.ids.(!best_online) then
                  best_online := m;
                answer_from_table t key m add_candidate;
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

let bucket_count t m =
  Array.fold_left (fun acc len -> if len > 0 then acc + 1 else acc) 0 t.blen.(m)

let routing_table_size t m = Array.fold_left ( + ) 0 t.blen.(m)

(* Crash-stop state loss: empty every k-bucket of [peer].  Lookups from
   the member then start with no candidates and fail immediately (miss
   path); [probe_and_repair] only touches non-empty buckets, so only
   {!rebuild_routes} restores the table. *)
let forget_routes t ~peer =
  Array.fill t.blen.(peer) 0 Bitkey.width 0;
  Option.iter
    (fun lv ->
      Array.fill lv.clen.(peer) 0 Bitkey.width 0;
      Array.fill lv.touched.(peer) 0 Bitkey.width false)
    t.live

(* Rejoin: repopulate [peer]'s k-buckets with the construction-time
   reservoir pass (uniform bucket membership among eligible members).
   One message per entry learned — the FIND_NODE traffic of a Kademlia
   join.  Live mode also empties the replacement caches and counts every
   bucket as just contacted. *)
let rebuild_routes t rng ~peer =
  sample_buckets rng t.ids ~bucket_size:t.bucket_size t.buckets.(peer) t.blen.(peer) peer;
  Option.iter
    (fun lv ->
      Array.fill lv.clen.(peer) 0 Bitkey.width 0;
      Array.fill lv.touched.(peer) 0 Bitkey.width true)
    t.live;
  routing_table_size t peer

(* Fill [nonempty_buf] with the indices of [peer]'s non-empty buckets,
   ascending; returns how many. *)
let collect_nonempty t peer =
  let count = ref 0 in
  for b = 0 to Bitkey.width - 1 do
    if t.blen.(peer).(b) > 0 then begin
      t.nonempty_buf.(!count) <- b;
      incr count
    end
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
  let lens = t.blen.(peer) in
  let count = collect_nonempty t peer in
  let sent = ref (drain_probe_cost t) in
  if count > 0 then begin
    for _ = 1 to probes do
      let b = t.nonempty_buf.(Rng.int rng count) in
      let len = lens.(b) in
      if len > 0 then begin
        let arr = t.buckets.(peer).(b) in
        let lrs = arr.(0) in
        let alive = online lrs in
        let cost = probe_cost lv ~alive in
        lv.probes <- lv.probes + 1;
        lv.probe_messages <- lv.probe_messages + cost;
        sent := !sent + cost;
        lv.touched.(peer).(b) <- true;
        remove_slot arr len 0;
        if alive then arr.(len - 1) <- lrs
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
          lens.(b) <- len - 1;
          lv.evictions <- lv.evictions + 1;
          match cache_pop lv ~owner:peer ~bucket:b with
          | Some fill ->
              arr.(len - 1) <- fill;
              lens.(b) <- len;
              lv.cache_fills <- lv.cache_fills + 1
          | None ->
              let n = members t in
              let attempts = ref 30 in
              let found = ref false in
              while (not !found) && !attempts > 0 do
                decr attempts;
                let cand = Rng.int rng n in
                if
                  cand <> peer && online cand
                  && bucket_of t peer cand = b
                  && slot_of arr (len - 1) cand < 0
                then begin
                  arr.(len - 1) <- cand;
                  lens.(b) <- len;
                  incr sent;
                  found := true
                end
              done
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
    let mine = t.ids.(peer) in
    for _ = 1 to probes do
      let b_idx = t.nonempty_buf.(Rng.int rng count) in
      let bucket = t.buckets.(peer).(b_idx) in
      let i = Rng.int rng t.blen.(peer).(b_idx) in
      if not (online bucket.(i)) then begin
        (* Replace with a random online member sharing the same bucket
           (common-prefix-length) if one exists; bounded sampling keeps
           the repair cheap. *)
        let n = members t in
        let rec attempt k =
          if k = 0 then ()
          else
            let cand = Rng.int rng n in
            let cpl = Bitkey.common_prefix_length mine t.ids.(cand) in
            let cand_bucket = min cpl (Bitkey.width - 1) in
            if cand <> peer && online cand && cand_bucket = b_idx then bucket.(i) <- cand
            else attempt (k - 1)
        in
        attempt 30
      end
    done;
    probes
  end
