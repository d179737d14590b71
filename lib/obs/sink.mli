(** Where trace events go.

    A sink is just a consumer function: a JSON Lines channel writer for
    offline analysis, or a raw callback for live consumers (a counter,
    a progress display, or a test collecting events in a list). *)

type t = Event.t -> unit

val jsonl : out_channel -> t
(** One compact JSON object per event, newline-terminated.  The caller
    owns the channel (flushing/closing). *)

val callback : (Event.t -> unit) -> t
