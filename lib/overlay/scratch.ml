(* Reusable per-topology search scratch.

   The visited set is a generation-stamped int array: a peer is
   "visited" when its stamp equals the current generation, so starting a
   new search is a single increment instead of an O(n) [Array.make]
   (or worse, a fresh allocation) per broadcast.  A random walk marks
   the item's holders with the negated generation in the same array;
   generations start at 1, so no stamp of another search, and no
   initial 0, reads as either mark.  Frontier, candidate
   and walker-position buffers are preallocated flat int arrays that the
   search algorithms index directly.

   A scratch belongs to exactly one search call at a time — the searches
   in this library are synchronous, so holding one scratch per
   [Unstructured_search.t] (one per simulated system, one per domain) is
   safe.  Never share a scratch between domains. *)

type t = {
  mutable stamp : int array;
  mutable generation : int;
  mutable frontier : int array;
  mutable next_frontier : int array;
  mutable candidates : int array;
  mutable positions : int array;
}

let create () =
  {
    stamp = [||];
    generation = 0;
    frontier = [||];
    next_frontier = [||];
    candidates = [||];
    positions = [||];
  }

let ensure_peers t n =
  if Array.length t.stamp < n then begin
    t.stamp <- Array.make n 0;
    t.generation <- 0;
    t.frontier <- Array.make n 0;
    t.next_frontier <- Array.make n 0;
    t.candidates <- Array.make n 0
  end

let ensure_walkers t n =
  if Array.length t.positions < n then t.positions <- Array.make n 0

(* Start a new search: everything stamped in previous generations reads
   as unvisited.  On the (practically unreachable) generation overflow,
   wipe the stamps and restart from 1. *)
let next_generation t =
  if t.generation = max_int then begin
    Array.fill t.stamp 0 (Array.length t.stamp) 0;
    t.generation <- 0
  end;
  t.generation <- t.generation + 1;
  t.generation
