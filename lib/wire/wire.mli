(** Binary wire codec for the multi-process driver.

    Sixteen frame kinds, coded 1 to 16; code 17 belonged to a retired
    request and decodes as {!Unknown_kind}.  The conductor reaches a
    worker's stores with five requests — {!Get} (the refreshing query
    hit, or a plain peek), {!Insert} (every write, repair copies
    included), {!Probe} (live count, crash clear), {!Census} (every key
    the worker holds live, for the index size) and {!Find} (the first
    live holder of a key among listed members, read-only) — and
    materialises routing hops and broadcast edges as {!Lookup} and
    {!Gossip}.  A {!Get} is answered by {!Entry}, a {!Census} by
    {!Keys}, a {!Find} by {!Found}, every other request by {!Ack}.

    Every message travels as one length-prefixed frame:

    {v
      +----------------+---------+------+------------------+
      | payload length | version | kind | body (per kind)  |
      |   4 bytes BE   | 1 byte  | 1 B  | length - 2 bytes |
      +----------------+---------+------+------------------+
    v}

    The payload length covers everything after the 4-byte prefix.
    Integers are 8-byte big-endian two's complement, floats 8-byte
    big-endian IEEE-754 bit patterns, booleans one byte (0/1), strings,
    byte blobs and lists a 4-byte big-endian count followed by the
    items.

    Decoding is total: any byte sequence yields either a message or a
    structured {!error} — never an exception.  Truncation is
    distinguished from corruption so a stream reader knows whether to
    wait for more bytes ({!Truncated}) or drop the connection
    (everything else). *)

(** Whole-store operations that return a single count. *)
type probe_op =
  | Live_count  (** non-expired entries held by a member *)
  | Clear       (** crash consequence: drop every entry, return count *)

type msg =
  | Hello of { node_id : int }
      (** worker -> conductor: first frame after connecting *)
  | Setup of {
      nodes : int;       (** worker process count *)
      members : int;     (** DHT members (store array size) *)
      keys : int;        (** distinct keys; workers rebuild the same
                             key hashes from this count *)
      stor : int;        (** per-member store capacity *)
      eviction : int;    (** always 0 (soonest expiry); the slot stays
                             because benchmark/layers.ml builds it *)
      seed : int;        (** run seed, for logging/sanity only *)
    }  (** conductor -> worker: sizing for the worker's shard *)
  | Lookup of { rid : int; span : int; src : int; dst : int; key : int }
      (** one DHT routing hop, delivered to the owner of [dst];
          answered by {!Ack} *)
  | Insert of { rid : int; peer : int; key : int; value : int; now : float; ttl : float }
      (** index write into [peer]'s store, expiring at [now +. ttl]:
          insertion, update, or a repair copy carrying its remaining
          TTL *)
  | Gossip of { span : int; src : int; dst : int; key : int }
      (** one broadcast/cast edge; one-way, never acknowledged *)
  | Get of { rid : int; peer : int; key : int; refresh : bool; now : float; ttl : float }
      (** store read of a live entry, answered by {!Entry}; [refresh]
          resets the expiry to [now +. ttl] (the paper's query-hit
          behaviour) *)
  | Probe of { rid : int; op : probe_op; peer : int; now : float }
  | Ack of { rid : int; ok : bool; value : int }
      (** acknowledgement of {!Lookup}, {!Insert} and {!Probe}; [value]
          is the probe's count *)
  | Entry of { rid : int; ok : bool; value : int; expiry : float }
      (** the answer to {!Get}: [ok = false] is a miss, otherwise the
          entry's value and absolute expiry (after any refresh) *)
  | Snapshot of { rid : int }
      (** conductor -> worker: request the worker's registry counters *)
  | Counters of { rid : int; node_id : int; counters : (string * int) list }
      (** worker -> conductor: registry counter snapshot for merging *)
  | Bye  (** conductor -> worker: flush observability output and exit *)
  | Census of { rid : int; now : float }
      (** conductor -> worker: which keys do the worker's stores hold
          live at [now]?  Read-only; answered by {!Keys} *)
  | Keys of { rid : int; bits : string }
      (** the answer to {!Census}: a [Pdht.Census] bitmap of the
          setup's [keys] bits, [ceil (keys / 8)] bytes, bounded only by
          {!max_payload} *)
  | Find of { rid : int; key : int; now : float; peers : int array }
      (** conductor -> worker: which of [peers] (members the worker
          owns, in probe order) is the first to hold [key] live at
          [now]?  Read-only: an expired entry is skipped and left in
          place.  Answered by {!Found} *)
  | Found of { rid : int; pos : int; value : int }
      (** the answer to {!Find}: the index into its [peers] of the first
          live holder and that entry's value, or [pos = -1] *)

type error =
  | Truncated of { need : int; have : int }
      (** not a whole frame yet; [need] is the total bytes required
          (known once the 4-byte prefix is readable, else 4) *)
  | Frame_too_large of { length : int; limit : int }
  | Bad_version of int
  | Unknown_kind of int
  | Malformed of string
      (** complete frame whose body does not parse (short body,
          trailing bytes, bad bool/probe code, oversized list or peer
          count...) *)

val version : int
(** Current envelope version (3). *)

val max_payload : int
(** Upper bound on the payload length a decoder accepts; anything
    larger is {!Frame_too_large} (garbage length prefixes otherwise
    turn into gigabyte waits). *)

val encode : Buffer.t -> msg -> unit
(** Append one complete frame. *)

val encode_bytes : msg -> Bytes.t
(** One complete frame as fresh bytes. *)

val decode : Bytes.t -> pos:int -> len:int -> (msg, error) result
(** [decode buf ~pos ~len] parses one frame from [buf.[pos .. pos+len)].
    Never raises on any input; out-of-range [pos]/[len] are reported as
    {!Malformed}.  A fixed-width kind allocates only the message and
    its [Ok]; a counted list is checked against the frame before
    anything is allocated for it. *)

val frame_length : Bytes.t -> pos:int -> int
(** The total bytes, prefix included, of the frame at [pos] that
    {!decode} just returned: what a stream reader consumes. *)

val equal : msg -> msg -> bool
val pp : Format.formatter -> msg -> unit
val error_to_string : error -> string
