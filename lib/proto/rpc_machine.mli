(** The RPC retry ladder: timeout, bounded retries, exponential backoff.

    The one definition both drivers share: the simulator's query-path
    hook ([Pdht_net.Hook.rpc], on a virtual clock) and the process
    conductor ([Pdht_proc.Cluster], on wall-clock deadlines).  The
    ladder owns no clock and sends nothing; the driver's [attempt]
    callback does one try and reports whether a reply arrived in time. *)

type config = { timeout : float; retries : int; backoff : float }

val timeout_for : config -> attempt:int -> float
(** [timeout *. backoff ^ attempt]: how long attempt [attempt]
    (0-based) waits before it counts as lost. *)

val call : config -> (attempt:int -> timeout:float -> 'a option) -> 'a option
(** [call config attempt] runs [attempt ~attempt:k ~timeout:(timeout_for
    config ~attempt:k)] for [k = 0, 1, ..., retries], stopping at the
    first [Some] and returning it; [None] once every attempt failed.
    Zero retries is one shot. *)
