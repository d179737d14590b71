(* Test helper for the cluster worker-death regression: behaves like a
   worker just long enough to handshake (Hello, then read one frame —
   the Setup) and then dies with a recognisable exit status.  The
   conductor must detect the death and fail fast, naming this node. *)

let () =
  let conn, _ = Worker_stub.connect "crash_worker" in
  (match Pdht_proc.Frame_io.recv ~deadline:(Unix.gettimeofday () +. 10.) conn with
  | Ok _ | Error _ -> ());
  exit 3
