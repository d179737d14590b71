(* Test helper for the census length check: a worker that keeps the
   protocol going with trivial answers (every index read misses) but
   answers each Census with a bitmap one byte shorter than the Setup's
   key count needs.  The conductor must fail, naming this node. *)

module Wire = Pdht_wire.Wire
module Frame_io = Pdht_proc.Frame_io

let () =
  let port = ref 0 and node_id = ref 0 in
  Arg.parse
    [
      ("--connect", Arg.Set_int port, "conductor port");
      ("--node-id", Arg.Set_int node_id, "worker id");
      ("--obs-out", Arg.String (fun _ -> ()), "ignored");
    ]
    (fun _positional -> ())
    "bad_census_worker";
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, !port));
  let conn = Frame_io.of_fd fd in
  Frame_io.send conn (Wire.Hello { node_id = !node_id });
  let keys = ref 0 in
  let rec loop () =
    match Frame_io.recv conn with
    | Ok (Wire.Setup setup) ->
        keys := setup.keys;
        loop ()
    | Ok (Wire.Lookup { rid; _ } | Wire.Insert { rid; _ } | Wire.Probe { rid; _ }) ->
        Frame_io.send conn (Wire.Ack { rid; ok = true; value = 0 });
        loop ()
    | Ok (Wire.Get { rid; _ }) ->
        Frame_io.send conn (Wire.Entry { rid; ok = false; value = 0; expiry = 0. });
        loop ()
    | Ok (Wire.Census { rid; _ }) ->
        Frame_io.send conn (Wire.Keys { rid; bits = String.make (((!keys + 7) / 8) - 1) '\000' });
        loop ()
    | Ok (Wire.Snapshot { rid }) ->
        Frame_io.send conn (Wire.Counters { rid; node_id = !node_id; counters = [] });
        loop ()
    | Ok (Wire.Gossip _) -> loop ()
    | Ok _ | Error _ -> ()
  in
  loop ()
