(** Framed {!Pdht_wire.Wire} message transport over a file descriptor.

    One [t] wraps one stream socket as a pipeline.  {!post} encodes a
    frame into the connection's output buffer, {!flush} writes that
    buffer, and {!recv} accumulates bytes until the codec yields a
    whole message.  The codec's {!Pdht_wire.Wire.Truncated} verdict is
    exactly the "wait for more bytes" signal; every other decode error
    is surfaced to the caller, who should drop the connection — a byte
    stream that mis-frames once never recovers.

    {!recv} flushes the connection's own posted frames before it waits,
    so a side that posts its requests (or replies) and then waits for
    an answer never waits on frames it has not written.  Frames leave
    in the order they were posted.

    Single-threaded.  The descriptor is non-blocking: a flush waits for
    writability in [select] and a receive for readability, each bounded
    by [deadline] when given. *)

type t

type recv_error =
  | Timeout                        (** deadline passed first *)
  | Closed                         (** peer closed the stream *)
  | Wire of Pdht_wire.Wire.error   (** corrupt frame; drop the connection *)

val of_fd : Unix.file_descr -> t
(** Take ownership of a connected stream socket and make it
    non-blocking, so raw writes to {!fd} must expect [EAGAIN]. *)

val fd : t -> Unix.file_descr

val post : t -> Pdht_wire.Wire.msg -> unit
(** Encode one frame onto the output buffer.  Nothing is written until
    the next {!flush}, {!send} or {!recv}. *)

val flush : ?deadline:float -> t -> (unit, recv_error) result
(** Write every posted byte, waiting for writability as often as
    needed; [Error Timeout] once [deadline] (an absolute
    [Unix.gettimeofday] instant) passes with bytes still unwritten,
    which stay buffered.  Without [deadline] it returns only [Ok ()].
    Raises [Unix.Unix_error] if the peer is gone (EPIPE/ECONNRESET) —
    the drivers treat a dead peer as fatal. *)

val send : t -> Pdht_wire.Wire.msg -> unit
(** {!post} then {!flush} without a deadline. *)

val recv : ?deadline:float -> t -> (Pdht_wire.Wire.msg, recv_error) result
(** Next whole message.  When none is buffered it flushes first (under
    the same [deadline], raising as {!flush} does), then reads as much
    as its buffer holds.  Without [deadline] the call blocks until a
    frame, EOF, or a codec error.  Bytes beyond the returned frame stay
    buffered for the next call. *)

val recv_error_to_string : recv_error -> string

val close : t -> unit
