(* Adjacency as flat CSR rows: member [i]'s neighbors are
   [cells.(off.(i)) .. cells.(off.(i + 1) - 1)], ascending member
   positions.  Subnets are built lazily on the query path, so their
   construction is paid by queries: two int arrays built in place cost
   less than an array and a copy per member. *)
type t = {
  replicas : int array; (* member position -> global peer index *)
  off : int array; (* n + 1 row starts *)
  cells : int array; (* rows, then unused slack left by the dedup *)
  (* Flood scratch, reused across calls: a generation-stamped visited
     set in [scratch.(0 .. n - 1)] and the BFS queue in
     [scratch.(n .. 2n - 1)], so a flood allocates nothing.
     Single-owner state — a subnet belongs to one simulated system. *)
  scratch : int array;
  mutable generation : int;
}

(* Sort [cells.(lo) .. cells.(hi - 1)] ascending and copy its distinct
   values leftwards to [cells.(dst) ..], [dst <= lo]; return the end of
   the copy.  Rows average 2 * (1 + chords) entries, so an insertion
   sort beats any general sort here. *)
let compact_row (cells : int array) ~dst lo hi =
  for i = lo + 1 to hi - 1 do
    let v = cells.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cells.(!j) > v do
      cells.(!j + 1) <- cells.(!j);
      decr j
    done;
    cells.(!j + 1) <- v
  done;
  let d = ref dst in
  for i = lo to hi - 1 do
    if i = lo || cells.(i) <> cells.(!d - 1) then begin
      cells.(!d) <- cells.(i);
      incr d
    end
  done;
  !d

let build rng ~replicas ~chords =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Replica_net.build: empty replica set";
  if chords < 0 then invalid_arg "Replica_net.build: negative chords";
  (* All scratch is sized to the edges, O(n * (1 + chords)), never to
     n^2.  Member [i] owns edge slots [i * per .. i * per + chords]: its
     ring successor, then its chords, drawn in exactly that order.  A
     slot records only the far end.  A lone member has no edges at
     all. *)
  let per = 1 + chords in
  let owners = if n > 1 then n else 0 in
  let far = Array.make (owners * per) 0 in
  for i = 0 to owners - 1 do
    far.(i * per) <- (i + 1) mod n;
    for c = 1 to chords do
      far.((i * per) + c) <- Pdht_util.Rng.int rng n
    done
  done;
  (* Bucket both directions of every edge but self-loops into rows.
     [off.(i + 1)] first counts member [i]'s endpoints; the prefix sum
     turns [off.(i)] into the start of row [i], and filling advances it
     to the row's end, which is the start of row [i + 1]. *)
  let off = Array.make (n + 1) 0 in
  for i = 0 to owners - 1 do
    for c = 0 to chords do
      let j = far.((i * per) + c) in
      if i <> j then begin
        off.(i + 1) <- off.(i + 1) + 1;
        off.(j + 1) <- off.(j + 1) + 1
      end
    done
  done;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let cells = Array.make off.(n) 0 in
  let add a b =
    cells.(off.(a)) <- b;
    off.(a) <- off.(a) + 1
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
     the ascending distinct members, ring and chord collisions merged.
     Rows compact leftwards in place, and [off.(i)] (now row [i]'s end)
     becomes its compacted start. *)
  let lo = ref 0 and dst = ref 0 in
  for i = 0 to n - 1 do
    let hi = off.(i) in
    off.(i) <- !dst;
    dst := compact_row cells ~dst:!dst !lo hi;
    lo := hi
  done;
  off.(n) <- !dst;
  { replicas; off; cells; scratch = Array.make (2 * n) 0; generation = 0 }

let size t = Array.length t.replicas
let replicas t = t.replicas
let neighbors t ~member =
  let lo = t.off.(member) in
  Array.init (t.off.(member + 1) - lo) (fun k -> t.replicas.(t.cells.(lo + k)))

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
        let n = Array.length t.replicas in
        let scratch = t.scratch and cells = t.cells and off = t.off in
        (if t.generation = max_int then begin
           Array.fill scratch 0 n 0;
           t.generation <- 0
         end);
        t.generation <- t.generation + 1;
        let gen = t.generation in
        scratch.(start) <- gen;
        scratch.(n) <- start;
        let head = ref n and tail = ref (n + 1) in
        let reached = ref 1 in
        let messages = ref 0 in
        while !head < !tail do
          let pos = scratch.(!head) in
          incr head;
          for i = off.(pos) to off.(pos + 1) - 1 do
            let q = cells.(i) in
            if online t.replicas.(q) then begin
              incr messages;
              if scratch.(q) <> gen then begin
                scratch.(q) <- gen;
                incr reached;
                scratch.(!tail) <- q;
                incr tail
              end
            end
          done
        done;
        { reached = !reached; messages = !messages }
      end

let duplication_factor r =
  if r.reached = 0 then 0. else float_of_int r.messages /. float_of_int r.reached
