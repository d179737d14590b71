(* Open-addressed flat store: one linear-probe int table (the interned
   62-bit keys themselves) plus a parallel unboxed [expiry] float array
   and a ['v] value array, all indexed by slot.  A slot is empty iff
   its key is [-1] (keys are non-negative by construction).
   Deletion is backward-shift (no tombstones), so probe chains never
   grow stale and the sweep in [expire] stays a single in-place pass.
   Load factor is kept at or below 1/2; tables start tiny (8 slots) so
   a million mostly-idle per-peer stores cost a few hundred bytes
   each. *)

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
  }

let capacity t = t.capacity

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

(* Backward-shift deletion: walk the probe chain after [slot], moving
   back any entry whose home position does not lie strictly between the
   current hole and itself, then leave the final hole empty. *)
let delete_slot t slot =
  let mask = t.mask in
  let keys = t.keys in
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
        hole := !j
      end;
      j := (!j + 1) land mask
    end
  done;
  keys.(!hole) <- -1;
  t.size <- t.size - 1

let grow t =
  let old_keys = t.keys
  and old_expiry = t.expiry
  and old_values = t.values in
  let slots = 2 * (t.mask + 1) in
  let mask = slots - 1 in
  t.mask <- mask;
  t.keys <- Array.make slots (-1);
  t.expiry <- Array.make slots 0.;
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
      t.values.(!j) <- old_values.(i)
    end
  done

(* In-place expiry sweep (no intermediate list): a backward shift can
   pull a later entry into the slot under examination, so the cursor
   only advances once the slot holds nothing expired. *)
let expire t ~now =
  let removed = ref 0 in
  let i = ref 0 in
  while !i <= t.mask do
    let k = t.keys.(!i) in
    if k >= 0 && t.expiry.(!i) <= now then begin
      delete_slot t !i;
      incr removed
    end
    else incr i
  done;
  !removed

(* The victim is the live entry closest to timing out, found by a
   slot-order linear scan: capacity is a per-peer cache size (order 100
   in the paper scenario), so a scan is cheaper than maintaining an
   ordered structure under the frequent TTL refreshes. *)
let evict_one t =
  if t.size > 0 then begin
    let best = ref (-1) in
    for i = 0 to t.mask do
      if t.keys.(i) >= 0 && (!best = -1 || t.expiry.(i) < t.expiry.(!best)) then best := i
    done;
    delete_slot t !best
  end

let put t ~key ~value ~now ~ttl =
  if ttl <= 0. then invalid_arg "Storage.put: ttl must be positive";
  let _ = expire t ~now in
  let k = Pdht_util.Bitkey.to_int key in
  let slot = find_slot t k in
  if slot >= 0 then begin
    t.expiry.(slot) <- now +. ttl;
    t.values.(slot) <- value
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
  let slot = find_live_slot t ~key ~now in
  if slot < 0 then None
  else begin
    t.expiry.(slot) <- now +. ttl;
    Some t.values.(slot)
  end

let peek t ~key ~now =
  let slot = find_live_slot t ~key ~now in
  if slot < 0 then None else Some (t.values.(slot), t.expiry.(slot))

let remove t ~key =
  let slot = find_slot t (Pdht_util.Bitkey.to_int key) in
  if slot >= 0 then delete_slot t slot

let clear t =
  let n = t.size in
  Array.fill t.keys 0 (t.mask + 1) (-1);
  t.size <- 0;
  n

let live_count t ~now =
  let _ = expire t ~now in
  t.size

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
