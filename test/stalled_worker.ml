(* Test helper for the stalled-worker deadline: handshakes, then reads
   and discards every frame without ever answering one, until the
   conductor closes the connection.  The conductor must give up within
   its retry ladder's budget, naming this node, rather than hang. *)

let () =
  let conn, _ = Worker_stub.connect "stalled_worker" in
  let rec loop () =
    match Pdht_proc.Frame_io.recv conn with Ok _ -> loop () | Error _ -> ()
  in
  loop ()
