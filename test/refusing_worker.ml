(* Test helper for the Ack check: a real worker in every respect but
   one — it refuses every Lookup hop ([Ack] with [ok = false]).  The
   conductor posts hops without waiting for their Acks, so it must find
   the refusal when it next waits on this worker and fail, naming this
   node and the Lookup. *)

module Wire = Pdht_wire.Wire
module Frame_io = Pdht_proc.Frame_io

let () =
  let conn, node_id = Worker_stub.connect "refusing_worker" in
  let keys = ref 0 in
  let rec loop () =
    match Frame_io.recv conn with
    | Ok (Wire.Setup setup) ->
        keys := setup.keys;
        loop ()
    | Ok (Wire.Lookup { rid; _ }) ->
        Frame_io.post conn (Wire.Ack { rid; ok = false; value = 0 });
        loop ()
    | Ok (Wire.Insert { rid; _ } | Wire.Probe { rid; _ }) ->
        Frame_io.post conn (Wire.Ack { rid; ok = true; value = 0 });
        loop ()
    | Ok (Wire.Get { rid; _ }) ->
        Frame_io.post conn (Wire.Entry { rid; ok = false; value = 0; expiry = 0. });
        loop ()
    | Ok (Wire.Find { rid; _ }) ->
        Frame_io.post conn (Wire.Found { rid; pos = -1; value = 0 });
        loop ()
    | Ok (Wire.Census { rid; _ }) ->
        Frame_io.post conn (Wire.Keys { rid; bits = String.make ((!keys + 7) / 8) '\000' });
        loop ()
    | Ok (Wire.Snapshot { rid }) ->
        Frame_io.post conn (Wire.Counters { rid; node_id; counters = [] });
        loop ()
    | Ok (Wire.Gossip _) -> loop ()
    | Ok _ | Error _ -> ()
  in
  loop ()
