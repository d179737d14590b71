type result = {
  found_at : int option;
  peers_reached : int;
  messages : int;
  hops_to_hit : int option;
  depth : int;
}

(* BFS over the topology using the scratch's generation-stamped visited
   set and preallocated frontier buffers.  The only allocations per
   search are the result record itself (and a fresh scratch when the
   caller did not supply one), so the per-broadcast cost no longer
   scales an [Array.make n false] with the network size. *)
let search ?scratch topo ~online ~holds ~source ~ttl =
  if not (online source) then
    { found_at = None; peers_reached = 0; messages = 0; hops_to_hit = None; depth = 0 }
  else begin
    let scratch = match scratch with Some s -> s | None -> Scratch.create () in
    let n = Topology.peer_count topo in
    Scratch.ensure_peers scratch n;
    let gen = Scratch.next_generation scratch in
    let stamp = scratch.Scratch.stamp in
    let frontier = ref scratch.Scratch.frontier in
    let next = ref scratch.Scratch.next_frontier in
    stamp.(source) <- gen;
    !frontier.(0) <- source;
    let frontier_len = ref 1 in
    let reached = ref 1 in
    let messages = ref 0 in
    let found_at = ref (if holds source then source else -1) in
    let hops_to_hit = ref (if !found_at >= 0 then 0 else -1) in
    let depth = ref 0 in
    while !frontier_len > 0 && !depth < ttl do
      incr depth;
      let next_len = ref 0 in
      let fr = !frontier and nx = !next in
      for i = 0 to !frontier_len - 1 do
        let p = fr.(i) in
        let deg = Topology.degree topo p in
        for k = 0 to deg - 1 do
          let q = Topology.neighbor topo p k in
          if online q then begin
            incr messages;
            if stamp.(q) <> gen then begin
              stamp.(q) <- gen;
              incr reached;
              if holds q && !found_at < 0 then begin
                found_at := q;
                hops_to_hit := !depth
              end;
              nx.(!next_len) <- q;
              incr next_len
            end
          end
        done
      done;
      frontier := nx;
      next := fr;
      frontier_len := !next_len
    done;
    {
      found_at = (if !found_at < 0 then None else Some !found_at);
      peers_reached = !reached;
      messages = !messages;
      hops_to_hit = (if !hops_to_hit < 0 then None else Some !hops_to_hit);
      depth = !depth;
    }
  end
