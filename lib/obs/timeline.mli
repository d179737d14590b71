(** Windowed time-series recorder.

    Fixed-width windows over simulated time; each window holds one
    float per declared series.  Window [k] covers
    [[k*width, (k+1)*width)].  This generalizes the fault subsystem's
    ad-hoc recovery buckets: the system run feeds per-query counts,
    message costs and latency sums into a timeline, and the summary
    lands in [System.report.timeline] and (via {!jsonl_lines}) in a
    [--timeline-out] JSONL file, giving hit-rate / latency / cost
    curves over time.

    Only windows that were actually touched are materialized, so a
    sparse run costs O(active windows). *)

type window = {
  index : int;          (** window number [k] *)
  t0 : float;           (** inclusive start, [k * width] *)
  t1 : float;           (** exclusive end, [(k+1) * width] *)
  values : float array; (** one slot per series, creation order *)
}

type summary = { width : float; series : string list; windows : window list }
(** Immutable snapshot; [windows] sorted by index, touched windows only. *)

type t

val create : width:float -> series:string list -> t
(** Raises [Invalid_argument] on non-positive width, an empty series
    list, or duplicate series names. *)

val series_id : t -> string -> int
(** Pre-resolve a series name to its slot (raises on unknown names);
    call once outside the hot path. *)

val add : t -> now:float -> int -> float -> unit
(** Accumulate into the window containing [now] (counter semantics). *)

val set : t -> now:float -> int -> float -> unit
(** Overwrite in the window containing [now] (gauge semantics:
    last write wins). *)

val summary : t -> summary

val write_jsonl : out_channel -> summary -> unit
(** One compact JSON object per window:
    [{"tl":k,"t0":...,"t1":...,"<series>":n,...}]. *)

val pp : Format.formatter -> summary -> unit
(** One-line rendering for report footers. *)
