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

(* Sort [cells.(lo) .. cells.(hi - 1)] ascending, drop repeats, and
   return the row as a fresh array.  Rows average 2 * (1 + chords)
   entries, so an insertion sort beats any general sort here. *)
let sorted_unique_row (cells : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = cells.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cells.(!j) > v do
      cells.(!j + 1) <- cells.(!j);
      decr j
    done;
    cells.(!j + 1) <- v
  done;
  let d = ref lo in
  for i = lo to hi - 1 do
    if i = lo || cells.(i) <> cells.(!d - 1) then begin
      cells.(!d) <- cells.(i);
      incr d
    end
  done;
  Array.sub cells lo (!d - lo)

let build rng ~replicas ~chords =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Replica_net.build: empty replica set";
  if chords < 0 then invalid_arg "Replica_net.build: negative chords";
  (* Subnets are built lazily on the query path (first flood of a key),
     so construction cost is hot, and all of its scratch is sized to
     the edges, O(n * (1 + chords)), never to n^2.  Member [i] owns
     edge slots [i * per .. i * per + chords]: its ring successor, then
     its chords, drawn in exactly that order.  A slot records only the
     far end.  A lone member has no edges at all. *)
  let per = 1 + chords in
  let owners = if n > 1 then n else 0 in
  let far = Array.make (owners * per) 0 in
  for i = 0 to owners - 1 do
    far.(i * per) <- (i + 1) mod n;
    for c = 1 to chords do
      far.((i * per) + c) <- Pdht_util.Rng.int rng n
    done
  done;
  (* Bucket both directions of every edge but self-loops into one flat
     array of rows.  [row_end.(i + 1)] first counts member [i]'s
     endpoints; the prefix sum turns [row_end.(i)] into the start of
     row [i], and filling advances it to the row's end. *)
  let row_end = Array.make (n + 1) 0 in
  for i = 0 to owners - 1 do
    for c = 0 to chords do
      let j = far.((i * per) + c) in
      if i <> j then begin
        row_end.(i + 1) <- row_end.(i + 1) + 1;
        row_end.(j + 1) <- row_end.(j + 1) + 1
      end
    done
  done;
  for i = 1 to n do
    row_end.(i) <- row_end.(i) + row_end.(i - 1)
  done;
  let cells = Array.make row_end.(n) 0 in
  let add a b =
    cells.(row_end.(a)) <- b;
    row_end.(a) <- row_end.(a) + 1
  in
  for i = 0 to owners - 1 do
    for c = 0 to chords do
      let j = far.((i * per) + c) in
      if i <> j then begin
        add i j;
        add j i
      end
    done
  done;
  (* Sorted and deduplicated, each row holds what a neighbor set would:
     the ascending distinct members, ring and chord collisions merged. *)
  let adj =
    Array.init n (fun i ->
        sorted_unique_row cells (if i = 0 then 0 else row_end.(i - 1)) row_end.(i))
  in
  { replicas; adj; stamp = Array.make n 0; queue = Array.make n 0; generation = 0 }

let size t = Array.length t.replicas
let replicas t = t.replicas
let neighbors t ~member = Array.map (fun pos -> t.replicas.(pos)) t.adj.(member)
(* Groups are small (the replication factor), so position lookup is a
   linear scan — building a hash index per subnet cost more at
   construction than every scan it ever served. *)
let position_of_peer t peer =
  let n = Array.length t.replicas in
  let rec go i = if i = n then -1 else if t.replicas.(i) = peer then i else go (i + 1) in
  go 0

let member_of_peer t peer =
  match position_of_peer t peer with -1 -> None | pos -> Some pos

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

let duplication_factor r =
  if r.reached = 0 then 0. else float_of_int r.messages /. float_of_int r.reached
