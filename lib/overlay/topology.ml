(* CSR adjacency: [neighbors.(offsets.(p) .. offsets.(p+1) - 1)] are
   peer [p]'s neighbors in ascending order — two flat int arrays for
   the whole graph instead of a boxed array per peer, so a million-peer
   topology is ~2 words per directed edge with no per-peer headers. *)
type t = { offsets : int array; neighbors : int array }

let peer_count t = Array.length t.offsets - 1
let degree t p = t.offsets.(p + 1) - t.offsets.(p)
let neighbor t p i = t.neighbors.(t.offsets.(p) + i)
let row_starts t = t.offsets
let adjacency t = t.neighbors

let neighbors t p = Array.sub t.neighbors t.offsets.(p) (degree t p)
let edge_count t = t.offsets.(peer_count t) / 2

(* The one CSR builder.  Owner [o] holds slots [far.(o * per) ..
   far.(o * per + per - 1)], each the far end of an undirected edge it
   opened; a slot equal to its owner is empty.  Both ends of every edge
   are counted into [offsets.(p + 1)]; the prefix sum turns [offsets.(p)]
   into the start of row [p], and filling advances it to the row's end,
   which is the start of row [p + 1].  Each row is then sorted and
   deduplicated, compacting leftwards in place, so it holds what a
   neighbor set would.  All scratch is sized to the edges, never to
   peers^2. *)
let of_slots ~peers ~per far =
  if per < 1 || Array.length far mod per <> 0 || Array.length far / per > peers then
    invalid_arg "Topology.of_slots: need per >= 1 and at most [peers] owners";
  let owners = Array.length far / per in
  let offsets = Array.make (peers + 1) 0 in
  for o = 0 to owners - 1 do
    for c = 0 to per - 1 do
      let f = far.((o * per) + c) in
      if f <> o then begin
        offsets.(o + 1) <- offsets.(o + 1) + 1;
        offsets.(f + 1) <- offsets.(f + 1) + 1
      end
    done
  done;
  for p = 1 to peers do
    offsets.(p) <- offsets.(p) + offsets.(p - 1)
  done;
  let neighbors = Array.make offsets.(peers) 0 in
  let add a b =
    neighbors.(offsets.(a)) <- b;
    offsets.(a) <- offsets.(a) + 1
  in
  for o = 0 to owners - 1 do
    for c = 0 to per - 1 do
      let f = far.((o * per) + c) in
      if f <> o then begin
        add o f;
        add f o
      end
    done
  done;
  (* [offsets.(p)] is now row [p]'s end; it becomes its compacted
     start.  Rows are short, so an insertion sort beats any general
     sort. *)
  let lo = ref 0 and dst = ref 0 in
  for p = 0 to peers - 1 do
    let hi = offsets.(p) in
    offsets.(p) <- !dst;
    for i = !lo + 1 to hi - 1 do
      let v = neighbors.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && neighbors.(!j) > v do
        neighbors.(!j + 1) <- neighbors.(!j);
        decr j
      done;
      neighbors.(!j + 1) <- v
    done;
    for i = !lo to hi - 1 do
      if i = !lo || neighbors.(i) <> neighbors.(!dst - 1) then begin
        neighbors.(!dst) <- neighbors.(i);
        incr dst
      end
    done;
    lo := hi
  done;
  offsets.(peers) <- !dst;
  { offsets; neighbors }

(* Whether owner [o]'s slots hold [v].  Top level with explicit
   arguments: a local closure over [far] allocated per peer. *)
let rec slots_hold (far : int array) ~per o v c =
  c < per && (far.((o * per) + c) = v || slots_hold far ~per o v (c + 1))

let random_regularish rng ~peers ~degree =
  if peers < 2 then invalid_arg "Topology.random_regularish: need >= 2 peers";
  if degree < 1 || degree >= peers then invalid_arg "Topology.random_regularish: bad degree";
  let far = Array.make (peers * degree) 0 in
  for p = 0 to peers - 1 do
    Array.fill far (p * degree) degree p;
    let opened = ref 0 in
    let attempts = ref 0 in
    (* A peer may fail to open all connections in a tiny network where
       every other peer is already a neighbor; cap the retries. *)
    while !opened < degree && !attempts < 20 * degree do
      incr attempts;
      let q = Pdht_util.Rng.int rng peers in
      (* [q] is already a neighbor if [p] opened it, or if an earlier
         [q] opened [p]; a later peer has opened nothing yet. *)
      if
        q <> p
        && (not (slots_hold far ~per:degree p q 0))
        && not (q < p && slots_hold far ~per:degree q p 0)
      then begin
        far.((p * degree) + !opened) <- q;
        incr opened
      end
    done
  done;
  of_slots ~peers ~per:degree far

let barabasi_albert rng ~peers ~attach =
  if attach < 1 || peers <= attach then invalid_arg "Topology.barabasi_albert: need peers > attach >= 1";
  let far = Array.make (peers * attach) 0 in
  for p = 0 to peers - 1 do
    Array.fill far (p * attach) attach p
  done;
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
  (* Seed: a small clique over the first attach+1 peers; owner [a]
     holds [a + 1 .. attach]. *)
  for a = 0 to attach do
    for b = a + 1 to attach do
      far.((a * attach) + (b - a - 1)) <- b;
      push a;
      push b
    done
  done;
  (* An arriving peer's distinct targets, kept sorted in its slots: the
     endpoint multiset (hence every later draw) depends on that
     order. *)
  for p = attach + 1 to peers - 1 do
    let base = p * attach in
    let count = ref 0 in
    let tries = ref 0 in
    while !count < attach && !tries < 50 * attach do
      incr tries;
      let target = endpoints.(Pdht_util.Rng.int rng !endpoint_count) in
      if target <> p then begin
        let i = ref (!count - 1) in
        while !i >= 0 && far.(base + !i) > target do
          decr i
        done;
        if !i < 0 || far.(base + !i) <> target then begin
          Array.blit far (base + !i + 1) far (base + !i + 2) (!count - !i - 1);
          far.(base + !i + 1) <- target;
          incr count
        end
      end
    done;
    for i = 0 to !count - 1 do
      push p;
      push far.(base + i)
    done
  done;
  of_slots ~peers ~per:attach far
