type result = {
  found_at : int option;
  rings : int;
  final_ttl : int;
  messages : int;
  depth : int;
}

let search ?scratch topo ~online ~holds ~source ~initial_ttl ~growth ~max_ttl =
  if initial_ttl < 1 then invalid_arg "Expanding_ring.search: initial_ttl must be >= 1";
  if growth < 1 then invalid_arg "Expanding_ring.search: growth must be >= 1";
  if max_ttl < initial_ttl then invalid_arg "Expanding_ring.search: max_ttl < initial_ttl";
  let messages = ref 0 in
  let rings = ref 0 in
  let depth = ref 0 in
  let rec attempt ttl previous_reach =
    incr rings;
    let r = Flood.search ?scratch topo ~online ~holds ~source ~ttl in
    messages := !messages + r.Flood.messages;
    (* Rings run one after the other, so their wave counts add up. *)
    depth := !depth + r.Flood.depth;
    match r.Flood.found_at with
    | Some _ ->
        { found_at = r.Flood.found_at; rings = !rings; final_ttl = ttl;
          messages = !messages; depth = !depth }
    | None ->
        if ttl >= max_ttl || r.Flood.peers_reached = previous_reach then
          (* Budget exhausted, or the flood stopped growing (component
             fully covered) — a larger ring cannot find more. *)
          { found_at = None; rings = !rings; final_ttl = ttl; messages = !messages;
            depth = !depth }
        else attempt (min max_ttl (ttl + growth)) r.Flood.peers_reached
  in
  attempt initial_ttl (-1)
