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
    answer [Get]/[Insert]/[Probe]/[Census]/[Find] store
    operations ({!answer}) and acknowledge [Lookup] routing hops until
    [Bye], at which point the node writes the replies still posted,
    then its [proc.*] counter registry as node-stamped JSONL (when
    [obs_out] is given) and returns.  A [Find] counts under
    [proc.gets] with the [Get]s; a [Census] (every key the shard holds
    live, read-only) counts under [proc.probes], with the other
    whole-store reads. *)

type shard
(** One worker's stores: a {!Pdht_dht.Storage.t} of capacity [stor] for
    every member [m < members] with [m mod nodes = node_id], keyed by
    [Bitkey.of_int key_index] for key indices below [keys]. *)

val shard : node_id:int -> nodes:int -> members:int -> keys:int -> stor:int -> shard

val store : shard -> peer:int -> int Pdht_dht.Storage.t
(** The store of an owned member.  @raise Failure for a member the
    shard does not own. *)

val answer : shard -> Pdht_wire.Wire.msg -> Pdht_wire.Wire.msg
(** The reply to one store request, applied to the shard:
    - [Insert] puts and is answered by [Ack];
    - [Get] refreshes or peeks, answered by [Entry];
    - [Probe] counts live entries, or clears and counts the entries
      that were live, answered by [Ack] with the count;
    - [Census] is answered by [Keys];
    - [Find] reads its members in order with [Storage.get], which
      leaves the store as it was, and is answered by [Found] with the
      first live one.
    @raise Failure for a member the shard does not own or a key index
    outside [keys].  @raise Invalid_argument for any other frame. *)

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
