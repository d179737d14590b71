(* Test helper for the census length check: a worker that keeps the
   protocol going with trivial answers (every index read misses) but
   answers each Census with a bitmap one byte shorter than the Setup's
   key count needs.  The conductor must fail, naming this node. *)

module Wire = Pdht_wire.Wire
module Frame_io = Pdht_proc.Frame_io

let () =
  let conn, node_id = Worker_stub.connect "bad_census_worker" in
  let keys = ref 0 in
  let rec loop () =
    match Frame_io.recv conn with
    | Ok (Wire.Setup setup) ->
        keys := setup.keys;
        loop ()
    | Ok (Wire.Lookup { rid; _ } | Wire.Insert { rid; _ } | Wire.Probe { rid; _ }) ->
        Frame_io.post conn (Wire.Ack { rid; ok = true; value = 0 });
        loop ()
    | Ok (Wire.Get { rid; _ }) ->
        Frame_io.post conn (Wire.Entry { rid; ok = false; value = 0; expiry = 0. });
        loop ()
    | Ok (Wire.Find { rid; _ }) ->
        Frame_io.post conn (Wire.Found { rid; pos = -1; value = 0 });
        loop ()
    | Ok (Wire.Census { rid; _ }) ->
        Frame_io.post conn (Wire.Keys { rid; bits = String.make (((!keys + 7) / 8) - 1) '\000' });
        loop ()
    | Ok (Wire.Snapshot { rid }) ->
        Frame_io.post conn (Wire.Counters { rid; node_id; counters = [] });
        loop ()
    | Ok (Wire.Gossip _) -> loop ()
    | Ok _ | Error _ -> ()
  in
  loop ()
