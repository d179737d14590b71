type category =
  | Query_unstructured
  | Query_index
  | Replica_flood
  | Index_insert
  | Maintenance
  | Update_gossip
  | Other

let category_index = function
  | Query_unstructured -> 0
  | Query_index -> 1
  | Replica_flood -> 2
  | Index_insert -> 3
  | Maintenance -> 4
  | Update_gossip -> 5
  | Other -> 6

let all_categories =
  [ Query_unstructured; Query_index; Replica_flood; Index_insert; Maintenance;
    Update_gossip; Other ]

let category_label = function
  | Query_unstructured -> "query-unstructured"
  | Query_index -> "query-index"
  | Replica_flood -> "replica-flood"
  | Index_insert -> "index-insert"
  | Maintenance -> "maintenance"
  | Update_gossip -> "update-gossip"
  | Other -> "other"

let counter_name cat = "messages." ^ category_label cat

(* One registry counter per category, in [category_index] order so
   [charge] stays O(1), plus each counter's reading at [create]. *)
type t = { counters : Pdht_obs.Registry.counter array; base : int array }

let create registry =
  let counters =
    Array.of_list
      (List.map (fun cat -> Pdht_obs.Registry.counter registry (counter_name cat))
         all_categories)
  in
  { counters; base = Array.map Pdht_obs.Registry.counter_value counters }

let charge t cat n = Pdht_obs.Registry.incr t.counters.(category_index cat) n

let count t cat =
  let i = category_index cat in
  Pdht_obs.Registry.counter_value t.counters.(i) - t.base.(i)

let total t = List.fold_left (fun acc cat -> acc + count t cat) 0 all_categories
let snapshot t = List.map (fun c -> (c, count t c)) all_categories
