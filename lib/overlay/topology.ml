(* CSR adjacency: [neighbors.(offsets.(p) .. offsets.(p+1) - 1)] are
   peer [p]'s neighbors in ascending order — two flat int arrays for
   the whole graph instead of a boxed array per peer, so a million-peer
   topology is ~2 words per directed edge with no per-peer headers. *)
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

(* Construction scratch: one growable int row per peer, in insertion
   order, plus its fill length.  Degrees are a handful, so a linear
   membership scan over a row beats a tree set and allocates nothing
   per edge.  Every undirected edge is entered in both rows at once,
   so [q] is in [p]'s row exactly when [p] is in [q]'s.  Membership is
   exact, so the generators below reject exactly the draws they always
   have and consume the same random stream. *)
type rows = { row : int array array; len : int array; first : int }

(* [first] is a row's initial capacity: the degree a generator expects,
   so most rows never grow. *)
let make_rows peers ~first = { row = Array.make peers [||]; len = Array.make peers 0; first }

let rec scan (row : int array) q i = i >= 0 && (row.(i) = q || scan row q (i - 1))
let mem rows p q = scan rows.row.(p) q (rows.len.(p) - 1)

let push rows p q =
  let n = rows.len.(p) in
  let row = rows.row.(p) in
  let row =
    if n < Array.length row then row
    else begin
      let grown = Array.make (max rows.first (2 * n)) 0 in
      Array.blit row 0 grown 0 n;
      rows.row.(p) <- grown;
      grown
    end
  in
  row.(n) <- q;
  rows.len.(p) <- n + 1

(* Add the undirected edge [(a, b)]; the caller knows it is new. *)
let link rows a b =
  push rows a b;
  push rows b a

(* Add the undirected edge [(a, b)] unless it is already there. *)
let connect rows a b = if not (mem rows a b) then link rows a b

(* Copy every row into the CSR and insertion-sort it there (rows are
   short), giving the ascending order the accessors promise. *)
let of_rows rows =
  let peers = Array.length rows.len in
  let offsets = Array.make (peers + 1) 0 in
  for p = 0 to peers - 1 do
    offsets.(p + 1) <- offsets.(p) + rows.len.(p)
  done;
  let neighbors = Array.make (max 1 offsets.(peers)) 0 in
  for p = 0 to peers - 1 do
    let lo = offsets.(p) in
    Array.blit rows.row.(p) 0 neighbors lo rows.len.(p);
    for i = lo + 1 to offsets.(p + 1) - 1 do
      let v = neighbors.(i) in
      let j = ref (i - 1) in
      while !j >= lo && neighbors.(!j) > v do
        neighbors.(!j + 1) <- neighbors.(!j);
        decr j
      done;
      neighbors.(!j + 1) <- v
    done
  done;
  { offsets; neighbors; edges = offsets.(peers) / 2 }

let random_regularish rng ~peers ~degree =
  if peers < 2 then invalid_arg "Topology.random_regularish: need >= 2 peers";
  if degree < 1 || degree >= peers then invalid_arg "Topology.random_regularish: bad degree";
  let rows = make_rows peers ~first:(2 * degree) in
  for p = 0 to peers - 1 do
    let opened = ref 0 in
    let attempts = ref 0 in
    (* A peer may fail to open all connections in a tiny network where
       every other peer is already a neighbor; cap the retries. *)
    while !opened < degree && !attempts < 20 * degree do
      incr attempts;
      let q = Pdht_util.Rng.int rng peers in
      if q <> p && not (mem rows p q) then begin
        link rows p q;
        incr opened
      end
    done
  done;
  of_rows rows

let barabasi_albert rng ~peers ~attach =
  if attach < 1 || peers <= attach then invalid_arg "Topology.barabasi_albert: need peers > attach >= 1";
  let rows = make_rows peers ~first:(2 * attach) in
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
      link rows a b;
      push a;
      push b
    done
  done;
  (* An arriving peer's distinct targets, kept sorted: it links to them
     in ascending order, and the endpoint multiset (hence every later
     draw) depends on that order. *)
  let chosen = Array.make attach 0 in
  for p = attach + 1 to peers - 1 do
    let count = ref 0 in
    let tries = ref 0 in
    while !count < attach && !tries < 50 * attach do
      incr tries;
      let target = endpoints.(Pdht_util.Rng.int rng !endpoint_count) in
      if target <> p then begin
        let i = ref (!count - 1) in
        while !i >= 0 && chosen.(!i) > target do
          decr i
        done;
        if !i < 0 || chosen.(!i) <> target then begin
          Array.blit chosen (!i + 1) chosen (!i + 2) (!count - !i - 1);
          chosen.(!i + 1) <- target;
          incr count
        end
      end
    done;
    (* [p] is new and the targets distinct, so every edge is new. *)
    for i = 0 to !count - 1 do
      let q = chosen.(i) in
      link rows p q;
      push p;
      push q
    done
  done;
  of_rows rows

let ring_lattice ~peers ~k =
  if peers < 3 then invalid_arg "Topology.ring_lattice: need >= 3 peers";
  if k < 1 || 2 * k >= peers then invalid_arg "Topology.ring_lattice: bad k";
  let rows = make_rows peers ~first:(2 * k) in
  (* With [2k < peers] no two offsets name the same pair, so every
     edge is new. *)
  for p = 0 to peers - 1 do
    for d = 1 to k do
      link rows p ((p + d) mod peers)
    done
  done;
  of_rows rows

let watts_strogatz rng ~peers ~k ~beta =
  if peers < 3 then invalid_arg "Topology.watts_strogatz: need >= 3 peers";
  if k < 1 || 2 * k >= peers then invalid_arg "Topology.watts_strogatz: bad k";
  if beta < 0. || beta > 1. then invalid_arg "Topology.watts_strogatz: beta outside [0,1]";
  let rows = make_rows peers ~first:(2 * k) in
  for p = 0 to peers - 1 do
    for d = 1 to k do
      let q = (p + d) mod peers in
      if Pdht_util.Rng.bernoulli rng ~p:beta then begin
        (* Rewire the lattice edge (p, q) to a random endpoint that
           creates neither a self-loop nor a duplicate. *)
        let rec fresh tries =
          if tries = 0 then q (* dense corner: keep the lattice edge *)
          else
            let r = Pdht_util.Rng.int rng peers in
            if r = p || mem rows p r then fresh (tries - 1) else r
        in
        connect rows p (fresh 20)
      end
      else connect rows p q
    done
  done;
  of_rows rows

let bfs_reach t ~online start =
  let n = peer_count t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  if online start then begin
    visited.(start) <- true;
    Queue.add start queue
  end;
  let reached = ref 0 in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    incr reached;
    iter_neighbors t p ~f:(fun q ->
        if (not visited.(q)) && online q then begin
          visited.(q) <- true;
          Queue.add q queue
        end)
  done;
  !reached

let is_connected t =
  let n = peer_count t in
  n = 0 || bfs_reach t ~online:(fun _ -> true) 0 = n

let connected_fraction_from t ~online start =
  let online_total =
    let acc = ref 0 in
    for p = 0 to peer_count t - 1 do
      if online p then incr acc
    done;
    !acc
  in
  if online_total = 0 then 0.
  else float_of_int (bfs_reach t ~online start) /. float_of_int online_total

let mean_degree t =
  if peer_count t = 0 then 0.
  else 2. *. float_of_int t.edges /. float_of_int (peer_count t)

let duplication_factor t = mean_degree t
