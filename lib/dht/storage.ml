(* Open-addressed flat store: one linear-probe int table (the interned
   62-bit keys themselves) plus a parallel unboxed [expiry] float array
   and a ['v] value array, all indexed by slot.  A slot is empty iff
   its key is [-1] (keys are non-negative by construction).
   Deletion is backward-shift (no tombstones), so probe chains never
   grow stale and a deletion leaves the table as if the key had never
   been inserted.
   Load factor is kept at or below 1/2; tables start tiny (8 slots) so
   a million mostly-idle per-peer stores cost a few hundred bytes
   each.

   The occupied slots are also threaded, in non-decreasing expiry order,
   on an intrusive doubly-linked list: [links.(slot)] packs
   [(prev + 1) lsl 31 lor (next + 1)] (0 = none) into one unboxed int,
   from [head] (soonest expiry) to [tail].  The soonest-expiring entry
   is then the head, so eviction and the expiry purge never scan the
   slots.  Simulated time only moves forward and a TTL is usually the
   same for every put, so a new expiry is almost always >= the tail's
   and links in O(1).  A shorter lease (the cost policy's [ttl_out]
   beside its longer [ttl_in]) lands mid-list; it walks from [finger],
   the last entry linked there, so a run of such leases, monotone
   among themselves, steps only over the entries that fell between
   two of them. *)

(* One constructor; the type stays because benchmark/workload.ml passes
   [System.options.eviction] to [Config.make]. *)
type eviction = Evict_soonest_expiry

type 'v t = {
  capacity : int;
  mutable size : int;
  mutable mask : int; (* slot count - 1; slot count a power of two *)
  mutable keys : int array; (* Bitkey.to_int; -1 = empty *)
  mutable expiry : float array;
  mutable values : 'v array; (* length 0 until the first [put] *)
  mutable links : int array; (* expiry-order list, packed as above *)
  mutable head : int; (* soonest-expiring slot; -1 = empty *)
  mutable tail : int;
  mutable finger : int; (* last slot linked mid-list; -1 = none *)
}

let initial_slots = 8

let create ~capacity () =
  if capacity < 1 then invalid_arg "Storage.create: capacity must be >= 1";
  {
    capacity;
    size = 0;
    mask = initial_slots - 1;
    keys = Array.make initial_slots (-1);
    expiry = Array.make initial_slots 0.;
    values = [||];
    links = Array.make initial_slots 0;
    head = -1;
    tail = -1;
    finger = -1;
  }


(* Fibonacci hashing: the multiply spreads key entropy into the high
   bits, the xor-shift folds them back down before masking. *)
let home key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* Slot of [key], or -1 when absent. *)
let find_slot t key =
  let mask = t.mask in
  let keys = t.keys in
  let i = ref (home key mask) in
  let s = ref (-1) in
  let continue = ref true in
  while !continue do
    let k = keys.(!i) in
    if k = key then begin
      s := !i;
      continue := false
    end
    else if k = -1 then continue := false
    else i := (!i + 1) land mask
  done;
  !s

(* Expiry-order list.  A slot number reaches 2^31 only in a table
   holding 2^30 entries, so both halves of a link fit in 31 bits. *)
let low = (1 lsl 31) - 1

let[@inline] prev_of links s = (links.(s) lsr 31) - 1
let[@inline] next_of links s = (links.(s) land low) - 1
let[@inline] set_prev links s p = links.(s) <- ((p + 1) lsl 31) lor (links.(s) land low)
let[@inline] set_next links s n = links.(s) <- (links.(s) land lnot low) lor (n + 1)

let unlink t s =
  let links = t.links in
  let p = prev_of links s and n = next_of links s in
  if t.finger = s then t.finger <- p;
  if p >= 0 then set_next links p n else t.head <- n;
  if n >= 0 then set_prev links n p else t.tail <- p

(* Link [s] after every entry whose expiry is <= its own.  [s] must be
   unlinked and its expiry already written. *)
let link t s =
  let links = t.links and expiry = t.expiry in
  let e = expiry.(s) in
  let tail = t.tail in
  if tail < 0 then begin
    links.(s) <- 0;
    t.head <- s;
    t.tail <- s
  end
  else if e >= expiry.(tail) then begin
    links.(s) <- (tail + 1) lsl 31;
    set_next links tail s;
    t.tail <- s
  end
  else if e < expiry.(t.head) then begin
    links.(s) <- t.head + 1;
    set_prev links t.head s;
    t.head <- s
  end
  else begin
    (* head <= e < tail, so the walk forward stops before the tail and
       the walk back stops at or after the head. *)
    let p = ref (if t.finger >= 0 then t.finger else tail) in
    if expiry.(!p) <= e then
      while expiry.(next_of links !p) <= e do
        p := next_of links !p
      done
    else begin
      p := prev_of links !p;
      while expiry.(!p) > e do
        p := prev_of links !p
      done
    end;
    let n = next_of links !p in
    links.(s) <- ((!p + 1) lsl 31) lor (n + 1);
    set_next links !p s;
    set_prev links n s;
    t.finger <- s
  end

(* Re-place [s] after its expiry moved from [old].  The tail keeps its
   place, neighbours untouched, when its expiry does not fall. *)
let[@inline] relink t s ~old =
  if not (s = t.tail && t.expiry.(s) >= old) then begin
    unlink t s;
    link t s
  end

(* Backward-shift deletion: walk the probe chain after [slot], moving
   back any entry whose home position does not lie strictly between the
   current hole and itself, then leave the final hole empty.  A moved
   entry keeps its place in the expiry list: its neighbours are pointed
   at its new slot. *)
let delete_slot t slot =
  let mask = t.mask in
  let keys = t.keys in
  unlink t slot;
  let hole = ref slot in
  let j = ref ((slot + 1) land mask) in
  let continue = ref true in
  while !continue do
    let k = keys.(!j) in
    if k = -1 then continue := false
    else begin
      let h = home k mask in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        keys.(!hole) <- k;
        t.expiry.(!hole) <- t.expiry.(!j);
        if Array.length t.values > 0 then t.values.(!hole) <- t.values.(!j);
        let links = t.links in
        let p = prev_of links !j and n = next_of links !j in
        links.(!hole) <- links.(!j);
        if p >= 0 then set_next links p !hole else t.head <- !hole;
        if n >= 0 then set_prev links n !hole else t.tail <- !hole;
        if t.finger = !j then t.finger <- !hole;
        hole := !j
      end;
      j := (!j + 1) land mask
    end
  done;
  keys.(!hole) <- -1;
  t.size <- t.size - 1

(* Rehash in old slot order (which fixes the new physical layout),
   recording each entry's new slot in its old [keys] cell; then replay
   the old expiry list through that map, appending, so the new list
   keeps the old order, ties included. *)
let grow t =
  let old_keys = t.keys
  and old_expiry = t.expiry
  and old_values = t.values
  and old_links = t.links
  and old_head = t.head in
  let slots = 2 * (t.mask + 1) in
  let mask = slots - 1 in
  t.mask <- mask;
  t.keys <- Array.make slots (-1);
  t.expiry <- Array.make slots 0.;
  t.links <- Array.make slots 0;
  if Array.length old_values > 0 then
    t.values <- Array.make slots old_values.(0);
  for i = 0 to Array.length old_keys - 1 do
    let k = old_keys.(i) in
    if k >= 0 then begin
      let j = ref (home k mask) in
      while t.keys.(!j) >= 0 do
        j := (!j + 1) land mask
      done;
      t.keys.(!j) <- k;
      t.expiry.(!j) <- old_expiry.(i);
      t.values.(!j) <- old_values.(i);
      old_keys.(i) <- !j
    end
  done;
  t.head <- -1;
  t.tail <- -1;
  t.finger <- -1;
  let s = ref old_head in
  while !s >= 0 do
    link t old_keys.(!s);
    s := next_of old_links !s
  done

(* Pop from the head while it has expired: O(expired), not O(slots).
   Purging in expiry order rather than slot order leaves the same
   table, since each deletion leaves it as if the key was never put. *)
let expire t ~now =
  let removed = ref 0 in
  while t.head >= 0 && t.expiry.(t.head) <= now do
    delete_slot t t.head;
    incr removed
  done;
  !removed

(* The victim is the live entry closest to timing out: the list head.
   Among entries tied with it on expiry (a [forever] TTL written at one
   instant ties them all), the lowest slot goes, as a slot-order scan
   for the strict minimum would pick; the tied run is the list's
   prefix. *)
let evict_one t =
  if t.head >= 0 then begin
    let e = t.expiry.(t.head) in
    let best = ref t.head in
    let s = ref (next_of t.links t.head) in
    while !s >= 0 && t.expiry.(!s) <= e do
      if !s < !best then best := !s;
      s := next_of t.links !s
    done;
    delete_slot t !best
  end

(* [ttl > 0.] is false for NaN, whose expiry would compare false both
   ways and break the list order. *)
let check_ttl fn ttl = if not (ttl > 0.) then invalid_arg (fn ^ ": ttl must be positive")

(* Reads leave expired entries in place; every put drops them first,
   so they never make a table grow or displace a live entry. *)
let put t ~key ~value ~now ~ttl =
  check_ttl "Storage.put" ttl;
  let _ = expire t ~now in
  let k = Pdht_util.Bitkey.to_int key in
  let slot = find_slot t k in
  if slot >= 0 then begin
    let old = t.expiry.(slot) in
    t.expiry.(slot) <- now +. ttl;
    t.values.(slot) <- value;
    relink t slot ~old
  end
  else begin
    if t.size >= t.capacity then evict_one t;
    if 2 * (t.size + 1) > t.mask + 1 then grow t;
    if Array.length t.values = 0 then
      t.values <- Array.make (t.mask + 1) value;
    let mask = t.mask in
    let i = ref (home k mask) in
    while t.keys.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    t.keys.(!i) <- k;
    t.expiry.(!i) <- now +. ttl;
    t.values.(!i) <- value;
    link t !i;
    t.size <- t.size + 1
  end

(* Slot of a live entry under [key], or -1; an expired one stays. *)
let find_live_slot t ~key ~now =
  let slot = find_slot t (Pdht_util.Bitkey.to_int key) in
  if slot < 0 || t.expiry.(slot) <= now then -1 else slot

let get t ~key ~now =
  let slot = find_live_slot t ~key ~now in
  if slot < 0 then None else Some t.values.(slot)

let get_and_refresh t ~key ~now ~ttl =
  check_ttl "Storage.get_and_refresh" ttl;
  let slot = find_live_slot t ~key ~now in
  if slot < 0 then None
  else begin
    let old = t.expiry.(slot) in
    t.expiry.(slot) <- now +. ttl;
    relink t slot ~old;
    Some t.values.(slot)
  end

let peek t ~key ~now =
  let slot = find_live_slot t ~key ~now in
  if slot < 0 then None else Some (t.values.(slot), t.expiry.(slot))

let live_count t ~now =
  let _ = expire t ~now in
  t.size

let remove t ~key =
  let slot = find_slot t (Pdht_util.Bitkey.to_int key) in
  if slot >= 0 then delete_slot t slot

let clear t ~now =
  let n = live_count t ~now in
  Array.fill t.keys 0 (t.mask + 1) (-1);
  t.size <- 0;
  t.head <- -1;
  t.tail <- -1;
  t.finger <- -1;
  n

(* Read-only: expired entries are skipped, not purged, so a walk leaves
   the physical contents (and every later victim choice) as it found
   them.  Keys only: the values live in a third array, and touching it
   once per live entry is most of a walk's cache misses. *)
let iter_live t ~now f =
  let keys = t.keys and expiry = t.expiry in
  for i = 0 to Array.length keys - 1 do
    let k = keys.(i) in
    if k >= 0 && expiry.(i) > now then f (Pdht_util.Bitkey.of_int k)
  done

let expiry t ~key =
  let slot = find_slot t (Pdht_util.Bitkey.to_int key) in
  if slot < 0 then None else Some t.expiry.(slot)
