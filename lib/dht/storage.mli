(** Per-peer bounded key-value store with expiration times.

    This implements the paper's index-cache behaviour directly: "Each
    key has an expiration time keyTtl ... The expiration time of a key
    is reset ... whenever the peer that stores the key receives a query
    for it.  Therefore, peers evict those keys from their local storage
    that have not been queried for keyTtl rounds" (Section 5.1), over a
    cache of [stor] key-value pairs per peer (Table 1).

    Lookups ([get], [get_and_refresh], [peek]) never change the store
    except for a refresh: an expired entry is treated as absent and
    left in place.  Every [put] first drops the expired entries.  When
    the cache is still full, the live entry closest to timing out is
    evicted — the entry the paper's TTL rule was going to drop next.
    (E14 measured LRU and random eviction against this rule; neither
    beat it, so neither exists.)

    The store keeps its entries in expiry order, so finding that victim
    and dropping expired entries cost no scan of the cache.  A [put] or
    [get_and_refresh] is O(1) when the new expiry is >= every stored
    one (a monotone clock with one lease) or below every one.  An
    expiry that lands mid-list (a short lease beside a long one) costs
    a walk from the last entry linked mid-list over the entries
    between the two.  [put], [expire] and [live_count] also cost
    O(expired). *)

(** The one victim rule.  Kept as a type because benchmark/workload.ml
    passes it through [Config.make ?eviction]. *)
type eviction = Evict_soonest_expiry

type 'v t

val create : capacity:int -> unit -> 'v t
(** Requires [capacity >= 1]. *)

val put : 'v t -> key:Pdht_util.Bitkey.t -> value:'v -> now:float -> ttl:float -> unit
(** Drop every expired entry, then insert or overwrite; expiry becomes
    [now +. ttl].  A new key on a store still full evicts the live entry
    with the soonest expiry (of several tied on it, the one in the
    lowest slot).  Raises [Invalid_argument] unless [ttl > 0.], so NaN
    is refused. *)

val get : 'v t -> key:Pdht_util.Bitkey.t -> now:float -> 'v option
(** Lookup; an expired entry is treated as absent.  Does NOT refresh
    the TTL — that is the caller's policy decision. *)

val get_and_refresh :
  'v t -> key:Pdht_util.Bitkey.t -> now:float -> ttl:float -> 'v option
(** The paper's query-hit behaviour: on a hit, the expiration time is
    reset to [now +. ttl]; an expired entry is a miss.  Raises
    [Invalid_argument] unless [ttl > 0.]. *)

val peek : 'v t -> key:Pdht_util.Bitkey.t -> now:float -> ('v * float) option
(** A live entry's value and expiration instant, without refreshing
    it; an expired entry is treated as absent. *)

val remove : 'v t -> key:Pdht_util.Bitkey.t -> unit

val clear : 'v t -> now:float -> int
(** Drop every entry, live or expired, and return how many were live
    at [now] — the crash-stop "index cache lost" operation. *)

val expire : 'v t -> now:float -> int
(** Purge everything past expiry; returns the number evicted.
    O(expired). *)

val live_count : 'v t -> now:float -> int
(** Non-expired entries (purges as a side effect).  O(expired). *)

val iter_live : 'v t -> now:float -> (Pdht_util.Bitkey.t -> unit) -> unit
(** Apply the function to the key of every live entry, in slot order.
    Read-only: expired entries are skipped, not purged.  The function
    must not modify the store. *)

val expiry : 'v t -> key:Pdht_util.Bitkey.t -> float option
(** Current expiration instant of a key, if present (possibly already
    past). *)
