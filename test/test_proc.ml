(* Tests for the process-driver plumbing: framed socket I/O, and the
   worker-node protocol driven end-to-end over a socketpair (the worker
   answers frames buffered by the kernel, so no second process or
   thread is needed). *)

module Wire = Pdht_wire.Wire
module Frame_io = Pdht_proc.Frame_io
module Node = Pdht_proc.Node

(* ---------------------------------------------------------------- *)
(* Frame_io                                                          *)
(* ---------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Frame_io.of_fd a and cb = Frame_io.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Frame_io.close ca;
      Frame_io.close cb)
    (fun () -> f ca cb)

let recv_exn conn =
  match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 5.0) conn with
  | Ok msg -> msg
  | Error e -> Alcotest.fail (Frame_io.recv_error_to_string e)

let check_msg name want got =
  Alcotest.(check bool)
    (Format.asprintf "%s: %a" name Wire.pp want)
    true (Wire.equal want got)

let test_frame_io_roundtrip_preserves_order () =
  with_socketpair @@ fun ca cb ->
  let msgs =
    [ Wire.Hello { node_id = 3 };
      Wire.Get { rid = 1; peer = 7; key = 2; refresh = true; now = 1.5; ttl = 30. };
      Wire.Bye ]
  in
  List.iter (Frame_io.send ca) msgs;
  List.iter (fun want -> check_msg "in order" want (recv_exn cb)) msgs

let test_frame_io_reassembles_split_frames () =
  with_socketpair @@ fun ca cb ->
  let frame =
    Wire.encode_bytes (Wire.Counters { rid = 9; node_id = 1; counters = [ ("a", 2) ] })
  in
  let n = Bytes.length frame in
  ignore (Unix.write (Frame_io.fd ca) frame 0 3);
  (* Only a prefix is readable: a bounded recv must time out, not fail. *)
  (match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 0.05) cb with
  | Error Frame_io.Timeout -> ()
  | Ok _ -> Alcotest.fail "decoded a message from a partial frame"
  | Error e -> Alcotest.fail (Frame_io.recv_error_to_string e));
  ignore (Unix.write (Frame_io.fd ca) frame 3 (n - 3));
  check_msg "reassembled"
    (Wire.Counters { rid = 9; node_id = 1; counters = [ ("a", 2) ] })
    (recv_exn cb)

(* Any sequence of frames, cut into arbitrary chunks (a frame split
   anywhere, several frames in one write), reassembles to the same
   messages.  After each chunk the reader takes every whole frame the
   bytes so far hold, so partial frames are met at every offset. *)
let gen_frame_seq =
  let open QCheck.Gen in
  let small =
    oneof
      [
        map (fun rid -> Wire.Census { rid; now = float_of_int rid /. 3. }) small_nat;
        map (fun rid -> Wire.Ack { rid; ok = rid mod 2 = 0; value = -rid }) small_nat;
        map (fun node_id -> Wire.Hello { node_id }) small_nat;
        return Wire.Bye;
      ]
  in
  let keys =
    map2
      (fun rid bits -> Wire.Keys { rid; bits })
      small_nat
      (string_size ~gen:char (int_range 1_000 8_000))
  in
  pair
    (list_size (int_range 1 12) (frequency [ (3, small); (1, keys) ]))
    (list_size (int_bound 24) (float_bound_exclusive 1.))

let print_frame_seq (frames, cuts) =
  Format.asprintf "%a | cuts %s"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Wire.pp)
    frames
    (String.concat "," (List.map string_of_float cuts))

let prop_frame_io_reassembles =
  QCheck.Test.make ~name:"frame_io reassembles any split" ~count:200
    (QCheck.make ~print:print_frame_seq gen_frame_seq)
    (fun (frames, cuts) ->
      let stream = Buffer.create 4096 in
      List.iter (Wire.encode stream) frames;
      let stream = Buffer.to_bytes stream in
      let total = Bytes.length stream in
      let cuts =
        List.sort_uniq compare (List.map (fun f -> int_of_float (f *. float_of_int total)) cuts)
        @ [ total ]
      in
      with_socketpair @@ fun ca cb ->
      let got = ref [] and n = ref 0 in
      let rec drain ~deadline =
        if !n < List.length frames then
          match Frame_io.recv ~deadline cb with
          | Ok m ->
              got := m :: !got;
              incr n;
              drain ~deadline
          | Error Frame_io.Timeout -> ()
          | Error e -> Alcotest.fail (Frame_io.recv_error_to_string e)
      in
      let rec write off len =
        if len > 0 then begin
          let n = Unix.write (Frame_io.fd ca) stream off len in
          write (off + n) (len - n)
        end
      in
      ignore
        (List.fold_left
           (fun from cut ->
             write from (cut - from);
             drain ~deadline:0.;
             cut)
           0 cuts);
      drain ~deadline:(Unix.gettimeofday () +. 5.);
      let got = List.rev !got in
      List.length got = List.length frames && List.for_all2 Wire.equal frames got)

(* Posting, flushing and sending in any interleaving puts the same
   bytes on the socket as one [send] per frame: the output buffer
   neither drops, repeats nor reorders a byte. *)
let gen_pipeline =
  let open QCheck.Gen in
  let frame =
    oneof
      [
        map (fun rid -> Wire.Lookup { rid; span = -1; src = rid; dst = 2 * rid; key = -1 }) small_nat;
        map (fun rid -> Wire.Ack { rid; ok = rid mod 3 <> 0; value = rid }) small_nat;
        map2
          (fun rid bits -> Wire.Keys { rid; bits })
          small_nat
          (string_size ~gen:char (int_bound 2_000));
        return Wire.Bye;
      ]
  in
  (* 0 posts, 1 posts and flushes, 2 sends. *)
  list_size (int_range 1 30) (pair frame (int_bound 2))

let prop_pipeline_bytes =
  QCheck.Test.make ~name:"post/flush/send put one send per frame's bytes" ~count:200
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map (fun (m, op) -> Format.asprintf "%d:%a" op Wire.pp m) ops))
       gen_pipeline)
    (fun ops ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let conn = Frame_io.of_fd a in
      Fun.protect
        ~finally:(fun () ->
          Frame_io.close conn;
          Unix.close b)
        (fun () ->
          List.iter
            (fun (m, op) ->
              match op with
              | 0 -> Frame_io.post conn m
              | 1 ->
                  Frame_io.post conn m;
                  ignore (Frame_io.flush conn)
              | _ -> Frame_io.send conn m)
            ops;
          ignore (Frame_io.flush conn);
          let want = Buffer.create 4096 in
          List.iter (fun (m, _) -> Buffer.add_bytes want (Wire.encode_bytes m)) ops;
          let n = Buffer.length want in
          let got = Bytes.create (n + 1) in
          (* Every expected byte, then a look for one byte too many. *)
          let rec read have timeout =
            match Unix.select [ b ] [] [] timeout with
            | [], _, _ -> have
            | _ when have > n -> have
            | _ ->
                let have = have + Unix.read b got have (n + 1 - have) in
                read have (if have < n then 5.0 else 0.0)
          in
          let have = read 0 5.0 in
          have = n && Bytes.sub_string got 0 n = Buffer.contents want))

(* A posted frame goes out when its sender waits for the answer: the
   echo child below answers only what reaches it, so without the flush
   in [recv] the wait times out. *)
let test_frame_io_recv_flushes_posted () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Wire.Get { rid = 7; peer = 1; key = 2; refresh = false; now = 3.; ttl = 4. } in
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      let child = Frame_io.of_fd b in
      (match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 5.) child with
      | Ok m -> Frame_io.send child m
      | Error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close b;
      let conn = Frame_io.of_fd a in
      Fun.protect
        ~finally:(fun () ->
          Frame_io.close conn;
          ignore (Unix.waitpid [] pid))
        (fun () ->
          Frame_io.post conn frame;
          check_msg "echoed" frame (recv_exn conn))

let test_frame_io_reports_closed () =
  with_socketpair @@ fun ca cb ->
  Frame_io.send ca Wire.Bye;
  Unix.shutdown (Frame_io.fd ca) Unix.SHUTDOWN_SEND;
  check_msg "buffered frame still delivered" Wire.Bye (recv_exn cb);
  match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 5.0) cb with
  | Error Frame_io.Closed -> ()
  | Ok _ -> Alcotest.fail "message after EOF"
  | Error e -> Alcotest.fail (Frame_io.recv_error_to_string e)

let test_frame_io_surfaces_codec_errors () =
  with_socketpair @@ fun ca cb ->
  (* A frame with a bogus version byte: complete, but corrupt. *)
  let raw = Bytes.of_string "\x00\x00\x00\x02\x63\x01" in
  ignore (Unix.write (Frame_io.fd ca) raw 0 (Bytes.length raw));
  match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 5.0) cb with
  | Error (Frame_io.Wire (Wire.Bad_version 0x63)) -> ()
  | Ok _ -> Alcotest.fail "decoded garbage"
  | Error e -> Alcotest.fail ("wrong error: " ^ Frame_io.recv_error_to_string e)

(* ---------------------------------------------------------------- *)
(* Node protocol                                                     *)
(* ---------------------------------------------------------------- *)

(* Script a whole worker session through the kernel socket buffer:
   write every conductor frame in one write, run [serve] (which drains
   them and buffers its replies), then read the replies back up to the
   end of the worker's stream. *)
let run_node_session ?obs_out script =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conductor = Frame_io.of_fd a and worker = Frame_io.of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Frame_io.close conductor;
      Frame_io.close worker)
    (fun () ->
      List.iter (Frame_io.post conductor) script;
      ignore (Frame_io.flush conductor);
      Node.serve ?obs_out ~node_id:1 worker;
      Unix.shutdown (Frame_io.fd worker) Unix.SHUTDOWN_SEND;
      let rec drain acc =
        match Frame_io.recv ~deadline:(Unix.gettimeofday () +. 1.0) conductor with
        | Ok msg -> drain (msg :: acc)
        | Error Frame_io.Timeout | Error Frame_io.Closed -> List.rev acc
        | Error e -> Alcotest.fail (Frame_io.recv_error_to_string e)
      in
      drain [])

(* node_id 1 of 2 nodes owns the odd members. *)
let setup = Wire.Setup { nodes = 2; members = 6; keys = 4; stor = 8; eviction = 0; seed = 7 }

let test_node_serves_store_ops () =
  let replies =
    run_node_session
      [ setup;
        Wire.Insert { rid = 1; peer = 3; key = 2; value = 55; now = 10.0; ttl = 30.0 };
        Wire.Get { rid = 2; peer = 3; key = 2; refresh = true; now = 20.0; ttl = 30.0 };
        (* The refresh at t=20 moved expiry to t=50, so t=45 still hits. *)
        Wire.Get { rid = 3; peer = 3; key = 2; refresh = false; now = 45.0; ttl = 0.0 };
        Wire.Get { rid = 4; peer = 3; key = 1; refresh = false; now = 20.0; ttl = 0.0 };
        Wire.Probe { rid = 5; op = Wire.Live_count; peer = 3; now = 20.0 };
        Wire.Probe { rid = 6; op = Wire.Clear; peer = 3; now = 0.0 };
        Wire.Lookup { rid = 7; span = -1; src = 0; dst = 5; key = -1 };
        Wire.Gossip { span = -1; src = 0; dst = 1; key = -1 };
        Wire.Bye ]
  in
  match replies with
  | [ Wire.Hello { node_id = 1 };
      Wire.Ack { rid = 1; ok = true; _ };
      Wire.Entry { rid = 2; ok = true; value = 55; expiry = 50.0 };
      Wire.Entry { rid = 3; ok = true; value = 55; expiry = 50.0 };
      Wire.Entry { rid = 4; ok = false; _ };
      Wire.Ack { rid = 5; ok = true; value = 1 };
      Wire.Ack { rid = 6; ok = true; value = 1 };
      Wire.Ack { rid = 7; ok = true; _ } ] ->
      ()
  | replies ->
      Alcotest.fail
        (Format.asprintf "unexpected session transcript:@ %a"
           (Format.pp_print_list Wire.pp) replies)

(* A census answers with the shard's live keys and purges nothing: an
   entry expired at the census's [now] is still there for an earlier
   read. *)
let test_node_serves_census () =
  let replies =
    run_node_session
      [ setup;
        Wire.Insert { rid = 1; peer = 1; key = 0; value = 10; now = 0.0; ttl = 100.0 };
        Wire.Insert { rid = 2; peer = 3; key = 2; value = 12; now = 0.0; ttl = 100.0 };
        Wire.Insert { rid = 3; peer = 5; key = 3; value = 13; now = 0.0; ttl = 10.0 };
        Wire.Census { rid = 4; now = 50.0 };
        Wire.Get { rid = 5; peer = 5; key = 3; refresh = false; now = 5.0; ttl = 0.0 };
        Wire.Census { rid = 6; now = 5.0 };
        Wire.Snapshot { rid = 7 };
        Wire.Bye ]
  in
  match replies with
  | [ Wire.Hello _; Wire.Ack { rid = 1; _ }; Wire.Ack { rid = 2; _ }; Wire.Ack { rid = 3; _ };
      Wire.Keys { rid = 4; bits = "\x05" };
      Wire.Entry { rid = 5; ok = true; value = 13; _ };
      Wire.Keys { rid = 6; bits = "\x0d" };
      Wire.Counters { rid = 7; counters; _ } ] ->
      Alcotest.(check (option int)) "a census counts as a probe" (Some 2)
        (List.assoc_opt "proc.probes" counters);
      Alcotest.(check (option int)) "and not as a get" (Some 1)
        (List.assoc_opt "proc.gets" counters)
  | replies ->
      Alcotest.fail
        (Format.asprintf "unexpected session transcript:@ %a"
           (Format.pp_print_list Wire.pp) replies)

(* A Find names the first live member of its list and leaves the stores
   as they were: an expired entry it skipped is still there for an
   earlier read, and a live one keeps its expiry.  Each Find counts as
   one get. *)
let test_node_serves_find () =
  let replies =
    run_node_session
      [ setup;
        Wire.Insert { rid = 1; peer = 1; key = 2; value = 11; now = 0.0; ttl = 10.0 };
        Wire.Insert { rid = 2; peer = 5; key = 2; value = 15; now = 0.0; ttl = 100.0 };
        Wire.Find { rid = 3; key = 2; now = 20.0; peers = [| 3; 1; 5 |] };
        Wire.Find { rid = 4; key = 2; now = 20.0; peers = [| 3; 1 |] };
        Wire.Get { rid = 5; peer = 1; key = 2; refresh = false; now = 5.0; ttl = 0.0 };
        Wire.Get { rid = 6; peer = 5; key = 2; refresh = false; now = 5.0; ttl = 0.0 };
        Wire.Snapshot { rid = 7 };
        Wire.Bye ]
  in
  match replies with
  | [ Wire.Hello _; Wire.Ack { rid = 1; _ }; Wire.Ack { rid = 2; _ };
      Wire.Found { rid = 3; pos = 2; value = 15 };
      Wire.Found { rid = 4; pos = -1; _ };
      Wire.Entry { rid = 5; ok = true; value = 11; expiry = 10.0 };
      Wire.Entry { rid = 6; ok = true; value = 15; expiry = 100.0 };
      Wire.Counters { rid = 7; counters; _ } ] ->
      Alcotest.(check (option int)) "Finds and Gets count as gets" (Some 4)
        (List.assoc_opt "proc.gets" counters);
      Alcotest.(check (option int)) "and not as probes" (Some 0)
        (List.assoc_opt "proc.probes" counters)
  | replies ->
      Alcotest.fail
        (Format.asprintf "unexpected session transcript:@ %a"
           (Format.pp_print_list Wire.pp) replies)

(* A crash loses the entries live at its instant: an entry that expired
   earlier, still in the store because nothing was put since, is not
   counted, in process or through a worker's [Probe {Clear}]. *)
let test_clear_counts_live_entries () =
  let module Storage = Pdht_dht.Storage in
  let fill put =
    List.iter (fun (key, ttl) -> put key ttl) [ (0, 10.0); (1, 100.0); (2, 100.0) ]
  in
  let stores = [| Storage.create ~capacity:4 () |] in
  let local = Pdht_core.Pdht.local_store_ops ~stores ~keys:3 in
  fill (fun key_index ttl -> local.put ~peer:0 ~key_index ~value:key_index ~now:0.0 ~ttl);
  Alcotest.(check int) "in process" 2 (local.clear ~peer:0 ~now:20.0);
  Alcotest.(check (option (float 0.))) "in-process store emptied" None
    (Storage.expiry stores.(0) ~key:(Pdht_util.Bitkey.of_int 0));
  let shard = Node.shard ~node_id:0 ~nodes:1 ~members:1 ~keys:3 ~stor:4 in
  fill (fun key ttl ->
      ignore
        (Node.answer shard (Wire.Insert { rid = 0; peer = 0; key; value = key; now = 0.0; ttl })));
  (match Node.answer shard (Wire.Probe { rid = 1; op = Wire.Clear; peer = 0; now = 20.0 }) with
  | Wire.Ack { rid = 1; ok = true; value } -> Alcotest.(check int) "through Node.answer" 2 value
  | reply -> Alcotest.failf "clear answered %a" Wire.pp reply);
  Alcotest.(check (option (float 0.))) "worker store emptied" None
    (Storage.expiry (Node.store shard ~peer:0) ~key:(Pdht_util.Bitkey.of_int 0))

(* The replica probe, two ways over the same stores: [first_holder] of
   [Pdht.local_store_ops], member by member with [get_and_refresh]
   until one hits, and [Cluster.first_holder]'s Find and refreshing
   Get, answered by 1-3 in-test [Node] shards.  Each member holds the
   probed key live, expired or not at all, beside other keys, in a
   small store; the candidates are the members in a random order.  Both
   must find the same holder and value, and leave every store the same:
   each key's expiry, the slot order of its entries, the victim of the
   next put, and its live count. *)
let prop_first_holder_matches_sequential =
  QCheck.Test.make ~name:"batched replica probe equals the member-by-member probe"
    ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Storage = Pdht_dht.Storage in
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n in
      let nodes = 1 + int 3 and members = 1 + int 10 and stor = 1 + int 4 in
      let keys = 7 and probed = 0 and now = 10.0 and ttl = 30.0 in
      (* Each member's puts at time 0: some of the keys other than the
         probed one and the last, then the probed key live (expiring
         after [now]), expired (at or before it) or absent, in random
         order.  Expired is the likeliest, so live members often sit
         behind expired ones. *)
      let puts =
        Array.init members (fun _ ->
            let others =
              List.filter_map
                (fun k -> if int 2 = 0 then Some (k, float_of_int (1 + int 25)) else None)
                [ 1; 2; 3; 4; 5 ]
            in
            let mine =
              match int 4 with
              | 0 -> [ (probed, now +. float_of_int (1 + int 20)) ]
              | 1 -> []
              | _ -> [ (probed, float_of_int (1 + int 10)) ]
            in
            List.map snd
              (List.sort compare (List.map (fun p -> (int 1000, p)) (mine @ others))))
      in
      let reference = Array.init members (fun _ -> Storage.create ~capacity:stor ()) in
      let shards =
        Array.init nodes (fun node_id -> Node.shard ~node_id ~nodes ~members ~keys ~stor)
      in
      let node_store m = Node.store shards.(m mod nodes) ~peer:m in
      Array.iteri
        (fun m ps ->
          List.iter
            (fun (key, ttl) ->
              let value = (100 * m) + key in
              Storage.put reference.(m) ~key:(Pdht_util.Bitkey.of_int key) ~value ~now:0.0
                ~ttl;
              match
                Node.answer shards.(m mod nodes)
                  (Wire.Insert { rid = 0; peer = m; key; value; now = 0.0; ttl })
              with
              | Wire.Ack { ok = true; _ } -> ()
              | reply -> Alcotest.failf "insert answered %a" Wire.pp reply)
            ps)
        puts;
      let peers = Array.init members Fun.id in
      for i = members - 1 downto 1 do
        let j = int (i + 1) in
        let x = peers.(i) in
        peers.(i) <- peers.(j);
        peers.(j) <- x
      done;
      let count = int (members + 1) in
      let sequential =
        (Pdht_core.Pdht.local_store_ops ~stores:reference ~keys).first_holder ~peers ~count
          ~key_index:probed ~now ~ttl
      in
      let last = Array.make nodes Wire.Bye in
      let expect k frame =
        let reply = Node.answer shards.(k) frame in
        (match (frame, reply) with
        | Wire.Get _, Wire.Entry { ok = false; _ } -> Alcotest.fail "the refreshing Get missed"
        | _ -> ());
        last.(k) <- reply
      in
      let batched =
        Pdht_proc.Cluster.first_holder ~nodes ~expect
          ~await_all:(List.map (fun k -> last.(k)))
          ~peers ~count ~key_index:probed ~now ~ttl
      in
      let view s =
        let order = ref [] in
        Storage.iter_live s ~now:neg_infinity (fun k ->
            order := Pdht_util.Bitkey.to_int k :: !order);
        ( List.init (keys + 1) (fun k -> Storage.expiry s ~key:(Pdht_util.Bitkey.of_int k)),
          List.rev !order )
      in
      let same_stores () =
        List.for_all (fun m -> view reference.(m) = view (node_store m)) (List.init members Fun.id)
      in
      let same_before = same_stores () in
      (* The next put's victim: a fresh key into each store. *)
      Array.iteri
        (fun m s ->
          let key = Pdht_util.Bitkey.of_int keys in
          Storage.put s ~key ~value:m ~now ~ttl;
          Storage.put (node_store m) ~key ~value:m ~now ~ttl)
        reference;
      let same_after_put = same_stores () in
      let same_live =
        List.for_all
          (fun m -> Storage.live_count reference.(m) ~now = Storage.live_count (node_store m) ~now)
          (List.init members Fun.id)
      in
      sequential = batched && same_before && same_after_put && same_live)

let test_node_snapshot_counts_traffic () =
  let replies =
    run_node_session
      [ setup;
        Wire.Insert { rid = 1; peer = 1; key = 0; value = 9; now = 0.0; ttl = 10.0 };
        Wire.Gossip { span = -1; src = 0; dst = 1; key = -1 };
        Wire.Snapshot { rid = 2 };
        Wire.Bye ]
  in
  match replies with
  | [ Wire.Hello _; Wire.Ack { rid = 1; _ };
      Wire.Counters { rid = 2; node_id = 1; counters } ] ->
      let count name =
        match List.assoc_opt name counters with Some n -> n | None -> 0
      in
      Alcotest.(check int) "one put" 1 (count "proc.puts");
      Alcotest.(check int) "one cast" 1 (count "proc.casts");
      (* Setup + Insert + Gossip + Snapshot received before the reply. *)
      Alcotest.(check int) "frames in" 4 (count "proc.frames_in")
  | replies ->
      Alcotest.fail
        (Format.asprintf "unexpected session transcript:@ %a"
           (Format.pp_print_list Wire.pp) replies)

(* Requests that arrive in one write are answered one reply each, in
   request order, whatever their mix. *)
let prop_node_answers_batch_in_order =
  let open QCheck.Gen in
  let request =
    oneof
      [
        map (fun m -> `Lookup (2 * m + 1)) (int_bound 2);
        map2 (fun m key -> `Insert (2 * m + 1, key)) (int_bound 2) (int_bound 3);
        map2 (fun m key -> `Get (2 * m + 1, key)) (int_bound 2) (int_bound 3);
        map (fun m -> `Probe (2 * m + 1)) (int_bound 2);
        map2 (fun m key -> `Find (2 * m + 1, key)) (int_bound 2) (int_bound 3);
      ]
  in
  QCheck.Test.make ~name:"node answers a batch in request order" ~count:50
    (QCheck.make (list_size (int_range 1 200) request))
    (fun requests ->
      let frames =
        List.mapi
          (fun i req ->
            let rid = i + 1 in
            match req with
            | `Lookup dst -> Wire.Lookup { rid; span = -1; src = 0; dst; key = -1 }
            | `Insert (peer, key) ->
                Wire.Insert { rid; peer; key; value = rid; now = 0.; ttl = 100. }
            | `Get (peer, key) ->
                Wire.Get { rid; peer; key; refresh = true; now = 1.; ttl = 100. }
            | `Probe peer -> Wire.Probe { rid; op = Wire.Live_count; peer; now = 1. }
            | `Find (peer, key) -> Wire.Find { rid; key; now = 1.; peers = [| peer; 1 |] })
          requests
      in
      match run_node_session ((setup :: frames) @ [ Wire.Bye ]) with
      | Wire.Hello _ :: replies ->
          List.length replies = List.length frames
          && List.for_all2
               (fun frame reply ->
                 match (frame, reply) with
                 | ( (Wire.Lookup { rid; _ } | Wire.Insert { rid; _ } | Wire.Probe { rid; _ }),
                     Wire.Ack a ) ->
                     a.rid = rid
                 | Wire.Get { rid; _ }, Wire.Entry e -> e.rid = rid
                 | Wire.Find { rid; _ }, Wire.Found f -> f.rid = rid
                 | _ -> false)
               frames replies
      | _ -> false)

let contains msg sub =
  let n = String.length sub and m = String.length msg in
  let rec at i = i + n <= m && (String.sub msg i n = sub || at (i + 1)) in
  at 0

(* Codes 1 and 2 were LRU and random eviction; soonest expiry (0) is the
   only rule left, and a worker must refuse anything else at once. *)
let test_node_rejects_retired_evictions () =
  List.iter
    (fun code ->
      let started = Unix.gettimeofday () in
      (match
         run_node_session
           [ Wire.Setup { nodes = 2; members = 6; keys = 4; stor = 8; eviction = code; seed = 7 };
             (* A worker that wrongly accepted the code ends here
                instead of waiting for frames that never come. *)
             Wire.Bye ]
       with
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names code %d: %s" code msg)
            true
            (contains msg (Printf.sprintf "unknown eviction code %d" code))
      | _ -> Alcotest.failf "accepted eviction code %d" code);
      Alcotest.(check bool) "failed promptly" true (Unix.gettimeofday () -. started < 5.0))
    [ 1; 2; 42 ]

(* Frames only a worker sends, or only the conductor sends as a reply,
   have no meaning after [Setup]: each must end the session at once with
   a failure naming the frame, not be skipped or answered. *)
let test_node_rejects_reply_frames () =
  List.iter
    (fun frame ->
      let name = Format.asprintf "%a" Wire.pp frame in
      let started = Unix.gettimeofday () in
      (match run_node_session [ setup; frame; Wire.Bye ] with
      | exception Failure msg ->
          Alcotest.(check bool)
            (Printf.sprintf "names %s: %s" name msg)
            true
            (contains msg ("unexpected frame " ^ name))
      | _ -> Alcotest.failf "accepted %s" name);
      Alcotest.(check bool) (name ^ " failed promptly") true
        (Unix.gettimeofday () -. started < 5.0))
    [ Wire.Hello { node_id = 0 };
      setup;
      Wire.Ack { rid = 1; ok = true; value = 0 };
      Wire.Entry { rid = 2; ok = true; value = 55; expiry = 50.0 };
      Wire.Keys { rid = 4; bits = "\x01" };
      Wire.Found { rid = 5; pos = 0; value = 9 };
      Wire.Counters { rid = 3; node_id = 0; counters = [ ("proc.gets", 1) ] } ]

let test_node_rejects_unowned_member () =
  match
    run_node_session
      [ setup;
        (* Member 2 belongs to node 0, not node 1. *)
        Wire.Get { rid = 1; peer = 2; key = 0; refresh = false; now = 0.0; ttl = 0.0 } ]
  with
  | exception Failure msg ->
      Alcotest.(check bool) "names the member" true (contains msg "member 2")
  | _ -> Alcotest.fail "expected a protocol failure"

(* Shards are keyed by key index, so an index outside the Setup's key
   count would put a key no census bitmap has room for. *)
let test_node_rejects_unknown_key () =
  match
    run_node_session
      [ setup; Wire.Insert { rid = 1; peer = 1; key = 1_000_000; value = 1; now = 0.0; ttl = 5.0 } ]
  with
  | exception Failure msg ->
      Alcotest.(check bool) "names the key index" true (contains msg "key index 1000000")
  | _ -> Alcotest.fail "expected a protocol failure"

let test_node_obs_out_validates () =
  let path = Filename.temp_file "pdht_node" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (run_node_session ~obs_out:path
           [ setup;
             Wire.Insert { rid = 1; peer = 1; key = 0; value = 1; now = 0.0; ttl = 5.0 };
             Wire.Bye ]);
      match Pdht_obs.Export.validate_jsonl_file ~path with
      | Ok lines -> Alcotest.(check bool) "wrote node-stamped lines" true (lines > 0)
      | Error msg -> Alcotest.fail msg)

(* ---------------------------------------------------------------- *)
(* Cluster worker death                                              *)

(* A worker executable built beside this test.  dune runtest runs us in
   the build dir next to the helpers; under dune exec the cwd is
   elsewhere, so fall back to our own dir. *)
let helper_exe name =
  let candidates =
    [
      Filename.concat (Sys.getcwd ()) name;
      Filename.concat (Filename.dirname Sys.executable_name) name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> Alcotest.failf "%s not found beside the test" name

let test_cluster_worker_death_fails_fast () =
  (* [crash_worker.exe] handshakes like a real worker and then exits
     with status 3; the conductor must detect the death and fail with
     the node id, exit status and last frame kind — not grind the RPC
     retry ladder against a dead process. *)
  let exe = helper_exe "crash_worker.exe" in
  let scenario =
    {
      Pdht_work.Scenario.news_default with
      Pdht_work.Scenario.num_peers = 60;
      keys = 100;
      duration = 60.;
      seed = 5;
    }
  in
  let module System = Pdht_core.System in
  let options = System.Options.make ~repl:5 ~stor:20 () in
  let strategy =
    Pdht_core.Strategy.Partial_index
      { key_ttl = System.derive_key_ttl scenario options }
  in
  let config = Pdht_proc.Cluster.default_config ~nodes:1 ~exe in
  let started = Unix.gettimeofday () in
  (* A death during the run surfaces through the engine's context
     wrapper; one during setup/teardown comes out as the bare Failure. *)
  match Pdht_proc.Cluster.run config scenario strategy options with
  | _ -> Alcotest.fail "conductor returned a report from a dead worker"
  | exception
      ( Failure msg
      | Pdht_sim.Engine.Handler_failed { exn = Failure msg; _ } ) ->
      Alcotest.(check bool) ("names the node: " ^ msg) true (contains msg "node 0");
      Alcotest.(check bool) ("names the exit status: " ^ msg) true
        (contains msg "exited with status 3");
      Alcotest.(check bool) ("names the last frame: " ^ msg) true
        (contains msg "last frame sent:");
      (* Fail-fast: well under the default 1+2+4+8 s retry ladder. *)
      Alcotest.(check bool) "failed promptly" true
        (Unix.gettimeofday () -. started < 5.0)

(* A worker whose census bitmap does not fit the key count is refused,
   by name, before its answer can skew the index size. *)
let test_cluster_rejects_bad_census () =
  let exe = helper_exe "bad_census_worker.exe" in
  let module System = Pdht_core.System in
  let scenario =
    {
      Pdht_work.Scenario.news_default with
      Pdht_work.Scenario.num_peers = 60;
      keys = 100;
      duration = 60.;
      seed = 5;
    }
  in
  let options = System.Options.make ~repl:5 ~stor:20 () in
  let strategy =
    Pdht_core.Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  in
  let config = Pdht_proc.Cluster.default_config ~nodes:1 ~exe in
  match Pdht_proc.Cluster.run config scenario strategy options with
  | _ -> Alcotest.fail "conductor accepted a short census bitmap"
  | exception
      ( Failure msg
      | Pdht_sim.Engine.Handler_failed { exn = Failure msg; _ } ) ->
      Alcotest.(check bool) ("names the node: " ^ msg) true (contains msg "node 0");
      Alcotest.(check bool) ("names the length: " ^ msg) true
        (contains msg "12-byte census bitmap; 100 keys need 13 bytes")

let small_cluster_run exe =
  let module System = Pdht_core.System in
  let scenario =
    {
      Pdht_work.Scenario.news_default with
      Pdht_work.Scenario.num_peers = 60;
      keys = 100;
      duration = 60.;
      seed = 5;
    }
  in
  let options = System.Options.make ~repl:5 ~stor:20 () in
  let strategy =
    Pdht_core.Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  in
  Pdht_proc.Cluster.run (Pdht_proc.Cluster.default_config ~nodes:1 ~exe) scenario strategy
    options

(* Lookup hops are posted without waiting for their Acks, so a refused
   hop must still fail the run, at the next wait on that worker. *)
let test_cluster_rejects_refused_hop () =
  let started = Unix.gettimeofday () in
  match small_cluster_run (helper_exe "refusing_worker.exe") with
  | _ -> Alcotest.fail "conductor accepted a refused Lookup"
  | exception
      ( Failure msg
      | Pdht_sim.Engine.Handler_failed { exn = Failure msg; _ } ) ->
      Alcotest.(check bool) ("names the node: " ^ msg) true (contains msg "node 0");
      Alcotest.(check bool) ("names the refused Lookup: " ^ msg) true
        (contains msg "refused Lookup");
      Alcotest.(check bool) "failed promptly" true (Unix.gettimeofday () -. started < 5.0)

(* A worker that reads every frame and answers none: the conductor
   gives up once the retry ladder's 1+2+4+8 s are spent, naming the
   node and the oldest unanswered frame, instead of hanging. *)
let test_cluster_stalled_worker_fails () =
  let started = Unix.gettimeofday () in
  match small_cluster_run (helper_exe "stalled_worker.exe") with
  | _ -> Alcotest.fail "conductor returned a report from a silent worker"
  | exception
      ( Failure msg
      | Pdht_sim.Engine.Handler_failed { exn = Failure msg; _ } ) ->
      let waited = Unix.gettimeofday () -. started in
      Alcotest.(check bool) ("names the node: " ^ msg) true (contains msg "node 0");
      Alcotest.(check bool) ("names the unanswered frame: " ^ msg) true
        (contains msg "oldest unanswered frame");
      Alcotest.(check bool) (Printf.sprintf "waited the ladder out (%.1f s)" waited) true
        (waited >= 15.0 && waited < 25.0)

(* The fault path through real workers: a crash wave with anti-entropy
   repair and invariant checks reaches every store operation over the
   wire — crash clears, live counts, repair reads and copies — and the
   2-process report must still be the same-seed simulator report. *)
let test_cluster_fault_path_equals_sim () =
  let module System = Pdht_core.System in
  let module Plan = Pdht_fault.Plan in
  let exe = helper_exe "node_worker.exe" in
  let scenario =
    { (Pdht_work.Scenario.with_scale Pdht_work.Scenario.news_default ~peers:200 ~keys:300)
      with Pdht_work.Scenario.duration = 240.; seed = 11 }
  in
  let plan =
    match Plan.of_string "crash:0.3@120+60" with
    | Ok plan ->
        { plan with
          Plan.repair = Some { Plan.every = 30.; min_fraction = 0.5 };
          check_invariants = true }
    | Error msg -> Alcotest.fail msg
  in
  let options = System.Options.make ~fault:plan () in
  let strategy =
    Pdht_core.Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }
  in
  let render r = Format.asprintf "%a" System.pp_report r in
  let sim = System.run scenario strategy options in
  let cluster =
    Pdht_proc.Cluster.run (Pdht_proc.Cluster.default_config ~nodes:2 ~exe) scenario
      strategy options
  in
  (match sim.System.fault with
  | Some f ->
      Alcotest.(check int) "crashes" 60 f.System.crashes;
      Alcotest.(check int) "repaired entries" 993 f.System.repaired_entries
  | None -> Alcotest.fail "no fault summary");
  Alcotest.(check string) "cluster report = simulator report" (render sim) (render cluster)

let () =
  Alcotest.run "pdht_proc"
    [
      ( "frame_io",
        [
          Alcotest.test_case "roundtrip preserves order" `Quick
            test_frame_io_roundtrip_preserves_order;
          Alcotest.test_case "reassembles split frames" `Quick
            test_frame_io_reassembles_split_frames;
          Alcotest.test_case "reports closed" `Quick test_frame_io_reports_closed;
          Alcotest.test_case "surfaces codec errors" `Quick
            test_frame_io_surfaces_codec_errors;
          QCheck_alcotest.to_alcotest prop_frame_io_reassembles;
          QCheck_alcotest.to_alcotest prop_pipeline_bytes;
          Alcotest.test_case "recv flushes posted frames" `Quick
            test_frame_io_recv_flushes_posted;
        ] );
      ( "node",
        [
          Alcotest.test_case "rejects retired eviction codes" `Quick
            test_node_rejects_retired_evictions;
          Alcotest.test_case "serves store ops" `Quick test_node_serves_store_ops;
          Alcotest.test_case "serves census" `Quick test_node_serves_census;
          Alcotest.test_case "serves find" `Quick test_node_serves_find;
          Alcotest.test_case "clear counts live entries" `Quick test_clear_counts_live_entries;
          QCheck_alcotest.to_alcotest prop_first_holder_matches_sequential;
          Alcotest.test_case "snapshot counts traffic" `Quick
            test_node_snapshot_counts_traffic;
          Alcotest.test_case "rejects unowned member" `Quick
            test_node_rejects_unowned_member;
          Alcotest.test_case "rejects unknown key" `Quick test_node_rejects_unknown_key;
          Alcotest.test_case "obs-out validates" `Quick test_node_obs_out_validates;
          Alcotest.test_case "rejects reply frames" `Quick test_node_rejects_reply_frames;
          QCheck_alcotest.to_alcotest prop_node_answers_batch_in_order;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "worker death fails fast" `Quick
            test_cluster_worker_death_fails_fast;
          Alcotest.test_case "fault path equals simulator" `Quick
            test_cluster_fault_path_equals_sim;
          Alcotest.test_case "rejects a short census bitmap" `Quick
            test_cluster_rejects_bad_census;
          Alcotest.test_case "rejects a refused hop" `Quick test_cluster_rejects_refused_hop;
          Alcotest.test_case "stalled worker fails within the ladder" `Slow
            test_cluster_stalled_worker_fails;
        ] );
    ]
