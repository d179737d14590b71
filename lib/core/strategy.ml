type t =
  | Index_all
  | No_index
  | Partial_index of { key_ttl : float }

let is_partial = function Partial_index _ -> true | Index_all | No_index -> false

let label = function
  | Index_all -> "indexAll"
  | No_index -> "noIndex"
  | Partial_index _ -> "partial"
