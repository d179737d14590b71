module Topology = Pdht_overlay.Topology

(* Adjacency over member positions, built by the one CSR builder and
   kept as its two flat rows: member [m]'s neighbors are [adj.(i)] for
   [row.(m) <= i < row.(m + 1)], read in place by [flood].  Subnets are
   built lazily on the query path, so their construction is paid by
   queries: a slot per edge and two flat arrays, nothing per member. *)
type t = {
  replicas : int array; (* member position -> global peer index *)
  row : int array;
  adj : int array;
  (* Flood scratch, reused across calls: a generation-stamped visited
     set in [scratch.(0 .. n - 1)] and the BFS queue in
     [scratch.(n .. 2n - 1)], so a flood allocates nothing.
     Single-owner state — a subnet belongs to one simulated system. *)
  scratch : int array;
  mutable generation : int;
}

let build rng ~replicas ~chords =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Replica_net.build: empty replica set";
  if chords < 0 then invalid_arg "Replica_net.build: negative chords";
  (* Member [i] owns slots [i * per .. i * per + chords]: its ring
     successor, then its chords, drawn in exactly that order.  A lone
     member has no edges at all, and draws nothing. *)
  let per = 1 + chords in
  let owners = if n > 1 then n else 0 in
  let far = Array.make (owners * per) 0 in
  for i = 0 to owners - 1 do
    far.(i * per) <- (i + 1) mod n;
    for c = 1 to chords do
      far.((i * per) + c) <- Pdht_util.Rng.int rng n
    done
  done;
  let graph = Topology.of_slots ~peers:n ~per far in
  {
    replicas;
    row = Topology.row_starts graph;
    adj = Topology.adjacency graph;
    scratch = Array.make (2 * n) 0;
    generation = 0;
  }

let size t = Array.length t.replicas
let replicas t = t.replicas
let neighbors t ~member =
  let first = t.row.(member) in
  Array.init (t.row.(member + 1) - first) (fun k -> t.replicas.(t.adj.(first + k)))

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
        let scratch = t.scratch and row = t.row and adj = t.adj in
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
          for i = row.(pos) to row.(pos + 1) - 1 do
            let q = adj.(i) in
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
