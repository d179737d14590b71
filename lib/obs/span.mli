(** Causal span identities.

    A span names one unit of causally-related work: a whole PDHT query
    (root span), or one DHT routing, unstructured wave, RPC attempt, or
    repair action performed on its behalf (child spans).  Events carry
    [span] (the event's own span id) and [parent] (the id of the span
    that caused it); a trace file therefore encodes a forest of span
    trees that {!tools/trace_stats} can reconstruct offline.

    Span ids are plain [int]s so they can be threaded through layers
    (e.g. [lib/overlay]) that must not depend on this library.  Ids are
    handed out by a sequential {!allocator} owned by the {!Tracer}:
    allocation only ever happens on the single simulation thread of one
    run, in event-emission order, so traces are deterministic — byte
    identical across [-j] values (the parallel runner gives every task
    its own tracer and only single-spec batches capture traces at all). *)

type t = { id : int; parent : int }

type allocator

val allocator : unit -> allocator
(** Fresh allocator; the first issued span gets id 0. *)

val issue : allocator -> parent:int -> t
(** Allocate the next sequential id with the given parent span id
    ([-1], the elided JSONL default, for a root). *)

val root : allocator -> t
(** [issue a ~parent:(-1)]. *)

val id : t -> int
