(** TTL-limited flooding search (the classic Gnutella mechanism).

    Every peer that receives the query for the first time forwards it to
    all neighbors except the sender; duplicate receptions are counted as
    messages but not forwarded.  The measured [messages / peers_reached]
    ratio is exactly the paper's duplication factor [dup]
    (Section 3.1). *)

type result = {
  found_at : int option;  (** first peer holding the key, if reached *)
  peers_reached : int;    (** distinct peers that saw the query *)
  messages : int;         (** total messages sent, duplicates included *)
  hops_to_hit : int option; (** TTL depth at which the key was first found *)
  depth : int;            (** BFS levels actually executed ([<= ttl]);
                              a level is one wave of parallel messages,
                              so sequential search time is [depth]
                              per-hop latencies *)
}

val search :
  ?scratch:Scratch.t ->
  Topology.t ->
  online:(int -> bool) ->
  holds:(int -> bool) ->
  source:int ->
  ttl:int ->
  result
(** Flood from [source] (which must be online, else the result is
    empty) up to [ttl] hops, looking for any online peer for which
    [holds] is true.  The flood is exhaustive (it does not stop early on
    a hit), matching deployed Gnutella behaviour and giving a
    conservative message count; [found_at] reports the first hit in BFS
    order.

    [scratch] makes repeated searches allocation-free: the visited set
    and frontier buffers are reused instead of rebuilt per call.  The
    result is identical with or without it (a fresh scratch is allocated
    when omitted).  Messages are instantaneous and reliable. *)
