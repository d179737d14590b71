module Wire = Pdht_wire.Wire

type t = {
  fd : Unix.file_descr;
  (* Input: bytes [pos, len) of [buf] are received and not yet decoded. *)
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  (* Output: [out.[0 .. out_len)] are posted and not yet written.  Each
     frame is encoded into [frame] and appended, so a flush writes
     straight from [out]. *)
  frame : Buffer.t;
  mutable out : Bytes.t;
  mutable out_len : int;
}

type recv_error = Timeout | Closed | Wire of Wire.error

(* Initial buffer sizes, and the least room a read is offered. *)
let chunk = 16_384

let of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    buf = Bytes.create chunk;
    pos = 0;
    len = 0;
    frame = Buffer.create 64;
    out = Bytes.create chunk;
    out_len = 0;
  }

let fd t = t.fd

let grow bytes ~used ~need =
  let cap = ref (Bytes.length bytes) in
  while !cap < need do
    cap := !cap * 2
  done;
  let grown = Bytes.create !cap in
  Bytes.blit bytes 0 grown 0 used;
  grown

(* Wait until [fd] is readable ([read]) or writable, or [deadline]
   passes. *)
let rec wait t ~read ~deadline =
  let timeout =
    match deadline with
    | None -> -1.0
    | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
  in
  let fds = [ t.fd ] in
  match
    if read then Unix.select fds [] [] timeout else Unix.select [] fds [] timeout
  with
  | [], [], _ -> Error Timeout
  | _ -> Ok ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait t ~read ~deadline

let post t msg =
  Buffer.clear t.frame;
  Wire.encode t.frame msg;
  let n = Buffer.length t.frame in
  if t.out_len + n > Bytes.length t.out then
    t.out <- grow t.out ~used:t.out_len ~need:(t.out_len + n);
  Buffer.blit t.frame 0 t.out t.out_len n;
  t.out_len <- t.out_len + n

let flush ?deadline t =
  let rec write off =
    if off = t.out_len then begin
      t.out_len <- 0;
      Ok ()
    end
    else
      match Unix.single_write t.fd t.out off (t.out_len - off) with
      | n -> write (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match wait t ~read:false ~deadline with
          | Ok () -> write off
          | Error _ as e ->
              (* Keep what is unwritten for the next flush. *)
              Bytes.blit t.out off t.out 0 (t.out_len - off);
              t.out_len <- t.out_len - off;
              e)
  in
  write 0

let send t msg =
  post t msg;
  match flush t with Ok () -> () | Error _ -> assert false (* no deadline *)

(* Read as much as the buffer holds, after moving the undecoded bytes to
   its front and making room for at least [chunk] more. *)
let rec fill t ~deadline =
  if t.pos > 0 then begin
    Bytes.blit t.buf t.pos t.buf 0 (t.len - t.pos);
    t.len <- t.len - t.pos;
    t.pos <- 0
  end;
  if Bytes.length t.buf - t.len < chunk then
    t.buf <- grow t.buf ~used:t.len ~need:(t.len + chunk);
  match wait t ~read:true ~deadline with
  | Error _ as e -> e
  | Ok () -> (
      match Unix.read t.fd t.buf t.len (Bytes.length t.buf - t.len) with
      | 0 -> Error Closed
      | n ->
          t.len <- t.len + n;
          Ok ()
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          fill t ~deadline
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error Closed)

let rec recv ?deadline t =
  match Wire.decode t.buf ~pos:t.pos ~len:(t.len - t.pos) with
  | Ok msg ->
      t.pos <- t.pos + Wire.frame_length t.buf ~pos:t.pos;
      Ok msg
  | Error (Wire.Truncated _) -> (
      (* About to wait: whatever was posted must be on its way first, or
         a peer waiting for it never answers. *)
      match flush ?deadline t with
      | Error _ as e -> e
      | Ok () -> (
          match fill t ~deadline with
          | Ok () -> recv ?deadline t
          | Error _ as e -> e))
  | Error e -> Error (Wire e)

let recv_error_to_string = function
  | Timeout -> "timed out waiting for a frame"
  | Closed -> "peer closed the connection"
  | Wire e -> Wire.error_to_string e

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
