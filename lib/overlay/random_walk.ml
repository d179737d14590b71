type result = {
  found_at : int option;
  steps_taken : int;
  messages : int;
  distinct_visited : int;
  rounds : int;
}

let search ?scratch ?span ?deliver topo rng ~online ~holders ~source ~walkers
    ~max_steps ~check_every =
  if walkers < 1 then invalid_arg "Random_walk.search: walkers must be >= 1";
  if check_every < 1 then invalid_arg "Random_walk.search: check_every must be >= 1";
  let n = Topology.peer_count topo in
  for i = 0 to Array.length holders - 1 do
    let h = holders.(i) in
    if h < 0 || h >= n then invalid_arg "Random_walk.search: holder out of range"
  done;
  if not (online source) then
    { found_at = None; steps_taken = 0; messages = 0; distinct_visited = 0; rounds = 0 }
  else begin
    let scratch = match scratch with Some s -> s | None -> Scratch.create () in
    Scratch.ensure_peers scratch n;
    Scratch.ensure_walkers scratch walkers;
    let gen = Scratch.next_generation scratch in
    let stamp = scratch.Scratch.stamp in
    (* Holders are stamped [-gen] and visited peers [gen], so one read
       of [stamp.(q)] per step answers both "visited?" and "first visit
       of a holder?".  Only a holder's first visit matters: [found_at]
       is set from then on. *)
    for i = 0 to Array.length holders - 1 do
      stamp.(holders.(i)) <- -gen
    done;
    (* Staging buffer for a step's online neighbors: filled in place so
       no per-step list/array is built.  One RNG draw per non-stalled
       step, exactly as a fresh-allocation implementation would make. *)
    let candidates = scratch.Scratch.candidates in
    let positions = scratch.Scratch.positions in
    let found_at = ref (if stamp.(source) = -gen then source else -1) in
    stamp.(source) <- gen;
    let distinct = ref 1 in
    Array.fill positions 0 walkers source;
    let steps = ref 0 in
    let messages = ref 0 in
    let round = ref 0 in
    let stop = ref (!found_at >= 0) in
    while (not !stop) && !round < max_steps do
      incr round;
      (* Read every walker's adjacency row before any walker steps.  The
         reads are independent, so their cache misses overlap instead of
         each queuing behind its walker's RNG draw. *)
      for w = 0 to walkers - 1 do
        let p = positions.(w) in
        if Topology.degree topo p > 0 then ignore (Sys.opaque_identity (Topology.neighbor topo p 0))
      done;
      (* One synchronous step of every walker. *)
      for w = 0 to walkers - 1 do
        let p = positions.(w) in
        let deg = Topology.degree topo p in
        (* Uniform draw over the *online* neighbors.  Rejection sampling
           (draw a neighbor, retry while offline) has exactly that
           conditional distribution and usually succeeds in one or two
           draws, so the common case never scans the whole neighbor
           list through the [online] closure.  After a few misses —
           most neighbors offline — fall back to the exact
           filter-then-draw, which is also uniform, so the overall
           distribution is unchanged either way. *)
        let q =
          if deg = 0 then -1
          else begin
            let attempts = ref 4 in
            let picked = ref (-1) in
            while !picked < 0 && !attempts > 0 do
              decr attempts;
              let c = Topology.neighbor topo p (Pdht_util.Rng.int rng deg) in
              if online c then picked := c
            done;
            if !picked >= 0 then !picked
            else begin
              let online_count = ref 0 in
              for k = 0 to deg - 1 do
                let c = Topology.neighbor topo p k in
                if online c then begin
                  candidates.(!online_count) <- c;
                  incr online_count
                end
              done;
              if !online_count = 0 then -1
              else candidates.(Pdht_util.Rng.int rng !online_count)
            end
          end
        in
        if q >= 0 then begin
          incr steps;
          incr messages;
          (* A lost step message (network model) leaves the walker where
             it was: the step is paid for but the next peer never hears
             the query, exactly like a stalled walker for one round. *)
          let delivered =
            match deliver with None -> true | Some d -> d ~span ~src:p ~dst:q
          in
          if delivered then begin
            positions.(w) <- q;
            let s = stamp.(q) in
            if s <> gen then begin
              stamp.(q) <- gen;
              incr distinct;
              if s = -gen && !found_at < 0 then found_at := q
            end
          end
        end
        (* else: stalled walker; retries next round *)
      done;
      (* Periodic check-back with the source: one probe per walker. *)
      if !round mod check_every = 0 then begin
        messages := !messages + walkers;
        if !found_at >= 0 then stop := true
      end
    done;
    {
      found_at = (if !found_at < 0 then None else Some !found_at);
      steps_taken = !steps;
      messages = !messages;
      distinct_visited = !distinct;
      rounds = !round;
    }
  end
