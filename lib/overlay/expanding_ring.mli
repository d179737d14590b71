(** Expanding-ring search: iterative-deepening flooding.

    The third classic unstructured mechanism ([LvCa02] evaluates it
    beside flooding and random walks): flood with TTL 1, and if the item
    is not found, re-flood with a larger TTL, growing until a hit or the
    depth budget runs out.  Early rings are cheap and usually suffice
    for well-replicated items; the cost of re-covering inner rings on
    each restart is the mechanism's known weakness for rare items. *)

type result = {
  found_at : int option;
  rings : int;        (** flood attempts performed *)
  final_ttl : int;    (** TTL of the last attempt *)
  messages : int;     (** total across every attempt *)
  depth : int;        (** BFS levels summed over all rings — rings run
                          sequentially, so this is the search's duration
                          in per-hop latencies *)
}

val search :
  ?scratch:Scratch.t ->
  Topology.t ->
  online:(int -> bool) ->
  holds:(int -> bool) ->
  source:int ->
  initial_ttl:int ->
  growth:int ->
  max_ttl:int ->
  result
(** Start at [initial_ttl], adding [growth] per round up to [max_ttl].
    Requires [initial_ttl >= 1], [growth >= 1], [max_ttl >=
    initial_ttl].  [scratch] is threaded through to the underlying
    {!Flood.search} rings. *)
