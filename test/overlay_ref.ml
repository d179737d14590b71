(* Verbatim copies of the overlay construction paths as they were
   when [Replica_net.build] filled a dense n x (n-1) row scratch,
   [Topology]'s generators ([random_regularish], [barabasi_albert])
   accumulated [Int_set] trees, and
   [Replication] kept a per-peer inverse view of every placement, plus
   [Replica_net.flood] as it walked one boxed row per member.
   test_scale's "overlay ref" properties drive these and the live
   modules from equal generator states and require equal adjacency,
   equal edge counts, equal placements, equal floods and an equal next
   draw.  Both live graph families now come out of the one CSR builder,
   [Topology.of_slots], so these properties are its oracle: the flat
   rewrites must change cost, never a result. *)

module Replica_net = struct
  type t = {
    replicas : int array; (* member position -> global peer index *)
    adj : int array array; (* member position -> member positions *)
    (* Flood scratch, reused across calls: generation-stamped visited set
       and a ring-buffer BFS queue, so the per-flood cost is free of the
       bool-array and Queue-cell allocations a fresh traversal would pay.
       Single-owner state — a subnet belongs to one simulated system. *)
    stamp : int array;
    queue : int array;
    mutable generation : int;
  }

  let build rng ~replicas ~chords =
    let n = Array.length replicas in
    if n = 0 then invalid_arg "Replica_net.build: empty replica set";
    if chords < 0 then invalid_arg "Replica_net.build: negative chords";
    (* Subnets are built lazily on the query path (first flood of a key),
       so construction cost is hot: accumulate each member's neighbor set
       in a flat fixed-capacity row with a linear duplicate scan —
       degrees stay small in practice, so the scan beats a tree set and
       allocates nothing per edge.  Sorting the rows reproduces the
       ascending order [Int_set.elements] returned. *)
    let cap = max 1 (n - 1) in
    let deg = Array.make n 0 in
    let rows = Array.make (n * cap) 0 in
    let connect a b =
      if a <> b then begin
        let base = a * cap in
        let d = deg.(a) in
        let dup = ref false in
        for k = 0 to d - 1 do
          if rows.(base + k) = b then dup := true
        done;
        if not !dup then begin
          rows.(base + d) <- b;
          deg.(a) <- d + 1
        end
      end
    in
    if n > 1 then
      for i = 0 to n - 1 do
        let succ = (i + 1) mod n in
        connect i succ;
        connect succ i;
        for _ = 1 to chords do
          let j = Pdht_util.Rng.int rng n in
          connect i j;
          connect j i
        done
      done;
    let adj =
      Array.init n (fun i ->
          let a = Array.sub rows (i * cap) deg.(i) in
          Array.sort Int.compare a;
          a)
    in
    { replicas; adj; stamp = Array.make n 0; queue = Array.make n 0; generation = 0 }

  let size t = Array.length t.replicas
  let neighbors t ~member = Array.map (fun pos -> t.replicas.(pos)) t.adj.(member)

  (* Groups are small (the replication factor), so position lookup is a
     linear scan — building a hash index per subnet cost more at
     construction than every scan it ever served. *)
  let position_of_peer t peer =
    let n = Array.length t.replicas in
    let rec go i = if i = n then -1 else if t.replicas.(i) = peer then i else go (i + 1) in
    go 0

  type flood_result = { reached : int; messages : int }

  let flood t ~online ~from_peer =
    match position_of_peer t from_peer with
    | -1 -> { reached = 0; messages = 0 }
    | start ->
        if not (online t.replicas.(start)) then { reached = 0; messages = 0 }
        else begin
          (if t.generation = max_int then begin
             Array.fill t.stamp 0 (Array.length t.stamp) 0;
             t.generation <- 0
           end);
          t.generation <- t.generation + 1;
          let gen = t.generation in
          let stamp = t.stamp and queue = t.queue in
          stamp.(start) <- gen;
          queue.(0) <- start;
          let head = ref 0 and tail = ref 1 in
          let reached = ref 1 in
          let messages = ref 0 in
          while !head < !tail do
            let pos = queue.(!head) in
            incr head;
            let nbrs = t.adj.(pos) in
            for i = 0 to Array.length nbrs - 1 do
              let q = nbrs.(i) in
              if online t.replicas.(q) then begin
                incr messages;
                if stamp.(q) <> gen then begin
                  stamp.(q) <- gen;
                  incr reached;
                  queue.(!tail) <- q;
                  incr tail
                end
              end
            done
          done;
          { reached = !reached; messages = !messages }
        end
end

module Topology = struct
  module Int_set = Set.Make (Int)

  (* CSR adjacency: [neighbors.(offsets.(p) .. offsets.(p+1) - 1)] are
     peer [p]'s neighbors in ascending order — two flat int arrays for
     the whole graph instead of a boxed array per peer, so a million-peer
     topology is ~2 words per directed edge with no per-peer headers.
     Topologies are build-once static; the Int_set accumulation below is
     construction-only scaffolding (its membership gating also fixes the
     RNG draw sequence, so it must not change shape). *)
  type t = { offsets : int array; neighbors : int array; edges : int }

  let peer_count t = Array.length t.offsets - 1
  let degree t p = t.offsets.(p + 1) - t.offsets.(p)
  let neighbor t p i = t.neighbors.(t.offsets.(p) + i)

  let iter_neighbors t p ~f =
    for i = t.offsets.(p) to t.offsets.(p + 1) - 1 do
      f t.neighbors.(i)
    done

  let neighbors t p = Array.sub t.neighbors t.offsets.(p) (degree t p)
  let edge_count t = t.edges

  let of_edge_sets sets =
    let peers = Array.length sets in
    let offsets = Array.make (peers + 1) 0 in
    for p = 0 to peers - 1 do
      offsets.(p + 1) <- offsets.(p) + Int_set.cardinal sets.(p)
    done;
    let neighbors = Array.make (max 1 offsets.(peers)) 0 in
    for p = 0 to peers - 1 do
      let i = ref offsets.(p) in
      (* Int_set.iter is ascending, matching the sorted per-peer arrays
         this layout replaced. *)
      Int_set.iter
        (fun q ->
          neighbors.(!i) <- q;
          incr i)
        sets.(p)
    done;
    { offsets; neighbors; edges = offsets.(peers) / 2 }

  let random_regularish rng ~peers ~degree =
    if peers < 2 then invalid_arg "Topology.random_regularish: need >= 2 peers";
    if degree < 1 || degree >= peers then invalid_arg "Topology.random_regularish: bad degree";
    let sets = Array.make peers Int_set.empty in
    let connect a b =
      sets.(a) <- Int_set.add b sets.(a);
      sets.(b) <- Int_set.add a sets.(b)
    in
    for p = 0 to peers - 1 do
      let opened = ref 0 in
      let attempts = ref 0 in
      (* A peer may fail to open all connections in a tiny network where
         every other peer is already a neighbor; cap the retries. *)
      while !opened < degree && !attempts < 20 * degree do
        incr attempts;
        let q = Pdht_util.Rng.int rng peers in
        if q <> p && not (Int_set.mem q sets.(p)) then begin
          connect p q;
          incr opened
        end
      done
    done;
    of_edge_sets sets

  let barabasi_albert rng ~peers ~attach =
    if attach < 1 || peers <= attach then invalid_arg "Topology.barabasi_albert: need peers > attach >= 1";
    let sets = Array.make peers Int_set.empty in
    let connect a b =
      sets.(a) <- Int_set.add b sets.(a);
      sets.(b) <- Int_set.add a sets.(b)
    in
    (* Endpoint multiset: picking a uniform element is picking a node with
       probability proportional to its degree.  Stored in a growable array
       so sampling stays O(1) as the graph grows. *)
    let capacity = 2 * ((attach * peers) + (attach * attach)) in
    let endpoints = Array.make capacity 0 in
    let endpoint_count = ref 0 in
    let push p =
      endpoints.(!endpoint_count) <- p;
      incr endpoint_count
    in
    (* Seed: a small clique over the first attach+1 peers. *)
    for a = 0 to attach do
      for b = a + 1 to attach do
        connect a b;
        push a;
        push b
      done
    done;
    for p = attach + 1 to peers - 1 do
      let chosen = ref Int_set.empty in
      let tries = ref 0 in
      while Int_set.cardinal !chosen < attach && !tries < 50 * attach do
        incr tries;
        let target = endpoints.(Pdht_util.Rng.int rng !endpoint_count) in
        if target <> p then chosen := Int_set.add target !chosen
      done;
      Int_set.iter
        (fun q ->
          connect p q;
          push p;
          push q)
        !chosen
    done;
    of_edge_sets sets
end

module Replication = struct
  (* [by_item] is indexed directly by the item id (items are small dense
     ints in practice — key indices), holding each item's replica set as a
     sorted array.  [holds] is the hot operation: unstructured search
     calls it once per walk step / flood visit, so it must not chase a
     tree — a binary search over a short sorted int array stays in one
     cache line.  The per-peer inverse view is the compact growable
     variant of the same idea: one sorted int array per peer
     ([peer_items] prefix of length [peer_len], doubling capacity), ~2
     words per holding instead of a balanced-tree node, so a million-peer
     placement is dominated by the ids themselves. *)
  type t = {
    total_peers : int;
    mutable by_item : int array array; (* item -> sorted replicas; [||] = absent *)
    peer_items : int array array; (* peer -> sorted items, prefix of peer_len *)
    peer_len : int array;
  }

  let no_replicas : int array = [||]

  let create ~peers =
    if peers < 1 then invalid_arg "Replication.create: need >= 1 peer";
    {
      total_peers = peers;
      by_item = Array.make 64 no_replicas;
      peer_items = Array.make peers no_replicas;
      peer_len = Array.make peers 0;
    }

  let peers t = t.total_peers

  let ensure_item t item =
    if item < 0 then invalid_arg "Replication: negative item";
    let n = Array.length t.by_item in
    if item >= n then begin
      let grown = Array.make (max (item + 1) (2 * n)) no_replicas in
      Array.blit t.by_item 0 grown 0 n;
      t.by_item <- grown
    end

  let replicas_of t item =
    if item < 0 || item >= Array.length t.by_item then no_replicas else t.by_item.(item)

  (* Position of [item] in [peer]'s sorted holdings, or the insertion
     point encoded as [-(pos + 1)] when absent. *)
  let peer_find t peer item =
    let arr = t.peer_items.(peer) in
    let lo = ref 0 and hi = ref (t.peer_len.(peer) - 1) in
    let res = ref min_int in
    while !res = min_int && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = Array.unsafe_get arr mid in
      if v = item then res := mid
      else if v < item then lo := mid + 1
      else hi := mid - 1
    done;
    if !res = min_int then -(!lo + 1) else !res

  let peer_add t peer item =
    let pos = peer_find t peer item in
    if pos < 0 then begin
      let at = -pos - 1 in
      let len = t.peer_len.(peer) in
      let arr = t.peer_items.(peer) in
      let arr =
        if len = Array.length arr then begin
          let grown = Array.make (max 4 (2 * len)) 0 in
          Array.blit arr 0 grown 0 len;
          t.peer_items.(peer) <- grown;
          grown
        end
        else arr
      in
      Array.blit arr at arr (at + 1) (len - at);
      arr.(at) <- item;
      t.peer_len.(peer) <- len + 1
    end

  let peer_remove t peer item =
    let pos = peer_find t peer item in
    if pos >= 0 then begin
      let len = t.peer_len.(peer) in
      let arr = t.peer_items.(peer) in
      Array.blit arr (pos + 1) arr pos (len - pos - 1);
      t.peer_len.(peer) <- len - 1
    end

  let remove t ~item =
    let reps = replicas_of t item in
    if Array.length reps > 0 then begin
      Array.iter (fun p -> peer_remove t p item) reps;
      t.by_item.(item) <- no_replicas
    end

  let place_on t ~item ~replicas =
    Array.iter
      (fun p -> if p < 0 || p >= t.total_peers then invalid_arg "Replication.place_on: bad peer")
      replicas;
    ensure_item t item;
    remove t ~item;
    (* Sort a copy and drop duplicates in place — same sorted distinct
       set the old Int_set round-trip produced. *)
    let reps =
      let sorted = Array.copy replicas in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let distinct = ref 0 in
      for i = 0 to n - 1 do
        if i = 0 || sorted.(i) <> sorted.(i - 1) then begin
          sorted.(!distinct) <- sorted.(i);
          incr distinct
        end
      done;
      if !distinct = n then sorted else Array.sub sorted 0 !distinct
    in
    t.by_item.(item) <- reps;
    Array.iter (fun p -> peer_add t p item) reps

  let remove_peer t ~peer =
    if peer < 0 || peer >= t.total_peers then invalid_arg "Replication.remove_peer: bad peer";
    let items = t.peer_items.(peer) in
    let n = t.peer_len.(peer) in
    for i = 0 to n - 1 do
      let item = items.(i) in
      let reps = t.by_item.(item) in
      let kept = Array.make (Array.length reps - 1) 0 in
      let j = ref 0 in
      Array.iter
        (fun p ->
          if p <> peer then begin
            kept.(!j) <- p;
            incr j
          end)
        reps;
      (* [reps] was sorted and held [peer] exactly once, so [kept] is
         full and still sorted. *)
      t.by_item.(item) <- (if Array.length kept = 0 then no_replicas else kept)
    done;
    t.peer_len.(peer) <- 0;
    n

  let place t rng ~item ~repl =
    if repl < 1 then invalid_arg "Replication.place: repl must be >= 1";
    let k = min repl t.total_peers in
    let replicas = Pdht_util.Sampling.sample_without_replacement rng ~k ~n:t.total_peers in
    place_on t ~item ~replicas

  let replicas t ~item = replicas_of t item

  let holds t ~peer ~item =
    let reps = replicas_of t item in
    (* Binary search in the sorted replica array. *)
    let lo = ref 0 and hi = ref (Array.length reps - 1) and found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = Array.unsafe_get reps mid in
      if v = peer then found := true
      else if v < peer then lo := mid + 1
      else hi := mid - 1
    done;
    !found

  let items_at t ~peer = Array.to_list (Array.sub t.peer_items.(peer) 0 t.peer_len.(peer))
  let replication_factor t ~item = Array.length (replicas t ~item)

  let availability t ~online ~item =
    let reps = replicas t ~item in
    let total = Array.length reps in
    if total = 0 then 0.
    else
      let up = Array.fold_left (fun acc p -> if online p then acc + 1 else acc) 0 reps in
      float_of_int up /. float_of_int total
end

(* Verbatim copies of the miss path and the placement sampler as they
   were when [Random_walk.search] asked a [holds] closure at every
   step and [Sampling.sample_without_replacement] kept its sparse
   Fisher-Yates displacements in a [Hashtbl].  test_scale's "random
   walk" and "sampling" properties require equal results and an equal
   next draw from these and the live functions. *)
module Random_walk = struct
  module Scratch = Pdht_overlay.Scratch
  module Topology = Pdht_overlay.Topology

  type result = {
    found_at : int option;
    steps_taken : int;
    messages : int;
    distinct_visited : int;
    rounds : int;
  }

  let search ?scratch ?span ?deliver topo rng ~online ~holds ~source ~walkers
      ~max_steps ~check_every =
    if walkers < 1 then invalid_arg "Random_walk.search: walkers must be >= 1";
    if check_every < 1 then invalid_arg "Random_walk.search: check_every must be >= 1";
    if not (online source) then
      { found_at = None; steps_taken = 0; messages = 0; distinct_visited = 0; rounds = 0 }
    else begin
      let scratch = match scratch with Some s -> s | None -> Scratch.create () in
      let n = Topology.peer_count topo in
      Scratch.ensure_peers scratch n;
      Scratch.ensure_walkers scratch walkers;
      let gen = Scratch.next_generation scratch in
      let stamp = scratch.Scratch.stamp in
      (* Staging buffer for a step's online neighbors: filled in place so
         no per-step list/array is built.  One RNG draw per non-stalled
         step, exactly as a fresh-allocation implementation would make. *)
      let candidates = scratch.Scratch.candidates in
      let positions = scratch.Scratch.positions in
      stamp.(source) <- gen;
      let distinct = ref 1 in
      let found_at = ref (if holds source then source else -1) in
      Array.fill positions 0 walkers source;
      let steps = ref 0 in
      let messages = ref 0 in
      let round = ref 0 in
      let stop = ref (!found_at >= 0) in
      while (not !stop) && !round < max_steps do
        incr round;
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
              if stamp.(q) <> gen then begin
                stamp.(q) <- gen;
                incr distinct
              end;
              if holds q && !found_at < 0 then found_at := q
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
end

module Sampling = struct
  module Rng = Pdht_util.Rng

  let sample_without_replacement rng ~k ~n =
    if k < 0 || k > n then invalid_arg "Sampling.sample_without_replacement";
    (* Sparse partial Fisher-Yates: O(k) time and space instead of
       materialising the whole [0..n-1] pool (which made every caller pay
       O(n) — ruinous when P-Grid construction samples references out of
       half the population per peer).  [displaced] records only the
       positions the virtual pool differs from the identity at; draws and
       output are index-for-index identical to shuffling the real pool. *)
    let displaced = Hashtbl.create (2 * k + 1) in
    let get i = match Hashtbl.find_opt displaced i with Some v -> v | None -> i in
    let out = Array.make (max k 1) 0 in
    for i = 0 to k - 1 do
      let j = Rng.int_in_range rng ~lo:i ~hi:(n - 1) in
      let vi = get i and vj = get j in
      out.(i) <- vj;
      (* Position [i] is never read again (future draws live in
         [i+1, n-1]), so only [j]'s displacement needs recording. *)
      Hashtbl.replace displaced j vi
    done;
    if k = Array.length out then out else Array.sub out 0 k
end
