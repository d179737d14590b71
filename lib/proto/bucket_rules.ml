type view = { occupancy : int; capacity : int; present : bool }

type contact_decision = Promote | Insert | Probe_lrs

let on_contact v =
  if
    v.occupancy < 0 || v.capacity < 1
    || v.occupancy > v.capacity
    || (v.present && v.occupancy = 0)
  then invalid_arg "Bucket_rules.on_contact: bad view";
  if v.present then Promote else if v.occupancy < v.capacity then Insert else Probe_lrs

type probe_outcome = Lrs_alive | Lrs_dead

type eviction_decision = Keep_old_cache_new | Evict_insert_new

let on_probe = function
  | Lrs_alive -> Keep_old_cache_new
  | Lrs_dead -> Evict_insert_new

let probe_messages ~retries ~alive =
  if retries < 0 then invalid_arg "Bucket_rules.probe_messages: negative retries";
  if alive then 1 else 1 + retries

let refresh_due ~last_contact ~now ~interval =
  if not (interval > 0.) then
    invalid_arg "Bucket_rules.refresh_due: interval must be positive";
  now -. last_contact >= interval
