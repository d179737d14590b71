(** Worker-process protocol: the storage half of the multi-process
    driver.

    A node owns the authoritative {!Pdht_dht.Storage} shards for every
    DHT member [m] with [m mod nodes = node_id], keyed by key index like
    the simulator's in-process stores, and serves the
    conductor's frames strictly sequentially — one reply to each request
    but [Gossip], in request order — so the cluster's global event
    order equals the conductor's issue order and same-seed runs stay
    deterministic.  Replies are posted ({!Frame_io.post}) and written
    when the node would block for the next request, so requests that
    arrive together are answered in one write.

    Lifecycle: connect, send [Hello], receive [Setup] (sizing), then
    answer [Get]/[Insert]/[Probe]/[Census] store operations and
    acknowledge [Lookup] routing hops until [Bye], at which point the
    node writes the replies still posted, then its [proc.*] counter
    registry as node-stamped JSONL
    (when [obs_out] is given) and returns.  A [Census] (every key the
    shard holds live, read without purging) counts under
    [proc.probes], with the other whole-store reads. *)

val serve : ?obs_out:string -> node_id:int -> Frame_io.t -> unit
(** Run the worker protocol over an established connection (sends the
    [Hello], expects [Setup] first).  Returns after [Bye] or when the
    conductor closes the stream; raises [Failure] on a protocol
    violation (corrupt frame, store op for a member this node does not
    own or for a key index outside the [Setup]'s key count, [Setup]
    missing, a [Setup] eviction code other than 0, or a reply-only
    frame — [Hello], [Setup], [Ack], [Entry], [Keys], [Counters] —
    after [Setup]; the failure names the frame). *)

val run : ?obs_out:string -> port:int -> node_id:int -> unit -> unit
(** Connect to the conductor on [127.0.0.1:port] and {!serve}. *)
