(* Wire codec tests: qcheck encode/decode round-trip over every message
   kind, plus adversarial decodes (truncation, garbage, wrong version,
   corrupt bodies) asserting structured errors and no exceptions. *)

module Wire = Pdht_wire.Wire

let msg = Alcotest.testable Wire.pp Wire.equal

let decode_ok bytes =
  match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Ok m -> (m, Wire.frame_length bytes ~pos:0)
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)

let roundtrip m =
  let bytes = Wire.encode_bytes m in
  let m', consumed = decode_ok bytes in
  Alcotest.check msg "round-trip" m m';
  Alcotest.(check int) "consumed whole frame" (Bytes.length bytes) consumed

(* ------------------------------------------------------------------ *)
(* Deterministic round-trips: one representative per constructor, with
   awkward scalar values (negative ints, infinities, NaN, zero-length
   and non-ASCII strings). *)

let sample_msgs : Wire.msg list =
  [
    Hello { node_id = 0 };
    Hello { node_id = max_int };
    Setup { nodes = 8; members = 1000; keys = 300; stor = 50; eviction = 2; seed = 42 };
    Lookup { rid = 1; span = -1; src = 17; dst = 988; key = 299 };
    Insert { rid = 2; peer = 3; key = 7; value = 11; now = 120.5; ttl = 1e15 };
    Gossip { span = 9; src = 0; dst = 999; key = 0 };
    Insert { rid = 3; peer = 4; key = 8; value = 12; now = 0.; ttl = 0.25 };
    Get { rid = 4; peer = 5; key = 9; refresh = true; now = 1.5; ttl = 30. };
    Get { rid = 5; peer = 6; key = 10; refresh = false; now = nan; ttl = infinity };
    Probe { rid = 8; op = Live_count; peer = 9; now = 5. };
    Probe { rid = 9; op = Clear; peer = 10; now = nan };
    Ack { rid = 10; ok = true; value = -1 };
    Ack { rid = 11; ok = false; value = min_int };
    Entry { rid = 12; ok = true; value = max_int; expiry = neg_infinity };
    Entry { rid = 13; ok = false; value = 0; expiry = 0. };
    Snapshot { rid = 13 };
    Counters { rid = 14; node_id = 3; counters = [] };
    Counters
      {
        rid = 15;
        node_id = 0;
        counters = [ ("proc.frames_in", 12); ("", 0); ("utf8 n\xc3\xb8de", -7) ];
      };
    Bye;
    Census { rid = 16; now = 120. };
    Census { rid = 17; now = nan };
    Keys { rid = 18; bits = "" };
    Keys { rid = 19; bits = "\x00\xff\x05" };
    (* Longer than any string field may be: a 20,000-key census. *)
    Keys { rid = 20; bits = String.init 2_500 (fun i -> Char.chr (i * 37 land 0xff)) };
    Find { rid = 21; key = 299; now = 120.5; peers = [| 3; 11; 19; 451 |] };
    Find { rid = 22; key = 0; now = nan; peers = [||] };
    Found { rid = 23; pos = 2; value = 188 };
    Found { rid = 24; pos = -1; value = 0 };
  ]

let test_samples_roundtrip () = List.iter roundtrip sample_msgs

(* The samples exercise every kind code the decoder accepts (1..16);
   byte 5 of a frame is its kind. *)
let test_samples_cover_kinds () =
  let kinds =
    List.sort_uniq compare
      (List.map (fun m -> Char.code (Bytes.get (Wire.encode_bytes m) 5)) sample_msgs)
  in
  Alcotest.(check (list int)) "kind codes" (List.init 16 (fun i -> i + 1)) kinds

(* Version 3's frames are fixed bytes, whatever the encoder's internals:
   every sample encodes to its recorded MD5 (in sample order), and one
   Lookup is spelled out, its length prefix included.  The digests of
   the first fourteen kinds were recorded before the decoder read whole
   fields at once; the Find and Found ones were appended when those
   kinds came in. *)
let known_digests =
  [ "c67cf7d8685bd89933e5e9117e50b71a"; "80060dccbdf58997f72855b1f0724aea";
    "a9e712160f976581263c382a4f43e35f"; "478d0922ab1f6c08183e00a7b4893572";
    "0bbc01bba47af1e1f12c2508f0bf2966"; "f0e578c8053fcb291f3f0ac1b877b822";
    "c10119efba5cceee6130ddd38640bcd7"; "4a56b5cb53e227902202798f0f449381";
    "21ae0deb40cf020086ccd56fc4f78a58"; "f18600c12a501177f88518cb90da782c";
    "3f3a19284fce2330bbdcdd0d7c78c3c9"; "6e377ff86f55650ea12d540d1a756817";
    "dbdab36e44cad6a12072a8e92062382a"; "a9a5e2e372f86fc234a8ac3672ba1c65";
    "259767a5701b9e70bd54498e4e2119cf"; "422c50fd6fea2a03445d158fbb57043f";
    "cd1ad8a46f0e8046132a13ff414e7aa0"; "28dbb2598aa0aee79c5bc7a79cb4314f";
    "e6ec43c8927b7e89da921fd5f28be7fa"; "1d73c047ccfc83f8e7ac50c5b75e5a2e";
    "62d6be68fc3323183c0dcc1fb0743185"; "faddf16f0ff1a8950eedf71eea9e51fd";
    "0feffaee3f950d3e1741671c721daf38"; "5cae88f14325b43b9ba80b9684b71008";
    "abfbda8e256007e74ebb6c4c305d8fa5"; "7d65b689e59622ffaefbcf17ce5a87ac";
    "e8ea457876279830cacfcfa784bb473c"; "c332ea01513bfe17bcf384fbfbc8149f" ]

let test_known_bytes () =
  Alcotest.(check (list string))
    "frame digests" known_digests
    (List.map (fun m -> Digest.to_hex (Digest.bytes (Wire.encode_bytes m))) sample_msgs);
  let hex b =
    String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))
  in
  Alcotest.(check string)
    "lookup bytes"
    ("0000002a" ^ "03" ^ "03" ^ "0000000000000001" ^ "ffffffffffffffff" ^ "0000000000000011"
   ^ "00000000000003dc" ^ "000000000000012b")
    (hex (Wire.encode_bytes (Lookup { rid = 1; span = -1; src = 17; dst = 988; key = 299 })))

let test_stream_of_frames () =
  (* Several frames back to back in one buffer decode in sequence. *)
  let b = Buffer.create 256 in
  List.iter (Wire.encode b) sample_msgs;
  let bytes = Buffer.to_bytes b in
  let pos = ref 0 in
  List.iter
    (fun expect ->
      match Wire.decode bytes ~pos:!pos ~len:(Bytes.length bytes - !pos) with
      | Ok m ->
          Alcotest.check msg "stream frame" expect m;
          pos := !pos + Wire.frame_length bytes ~pos:!pos
      | Error e -> Alcotest.failf "stream decode failed: %s" (Wire.error_to_string e))
    sample_msgs;
  Alcotest.(check int) "stream fully consumed" (Bytes.length bytes) !pos

(* ------------------------------------------------------------------ *)
(* Adversarial decodes.  Contract: every byte string yields Ok or a
   structured Error — never an exception — and the error kind
   distinguishes "wait for more bytes" from "drop the connection". *)

let test_truncation_every_prefix () =
  List.iter
    (fun m ->
      let bytes = Wire.encode_bytes m in
      let total = Bytes.length bytes in
      for len = 0 to total - 1 do
        match Wire.decode bytes ~pos:0 ~len with
        | Error (Wire.Truncated { need; have }) ->
            Alcotest.(check int) "have = len" len have;
            let expected_need = if len < 4 then 4 else total in
            Alcotest.(check int) "need" expected_need need
        | Ok _ -> Alcotest.failf "truncated frame (len=%d) decoded" len
        | Error e ->
            Alcotest.failf "truncated frame (len=%d) misreported: %s" len
              (Wire.error_to_string e)
      done)
    [ Wire.Lookup { rid = 1; span = 2; src = 3; dst = 4; key = 5 };
      Wire.Find { rid = 6; key = 7; now = 8.; peers = [| 9; 10; 11 |] };
      Wire.Found { rid = 12; pos = 1; value = 13 } ]

let test_bad_version () =
  let bytes = Wire.encode_bytes Wire.Bye in
  Bytes.set bytes 4 '\x63';
  match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Error (Wire.Bad_version 0x63) -> ()
  | Ok _ -> Alcotest.fail "bad version accepted"
  | Error e -> Alcotest.failf "bad version misreported: %s" (Wire.error_to_string e)

let test_unknown_kind () =
  let bytes = Wire.encode_bytes Wire.Bye in
  Bytes.set bytes 5 '\xfe';
  match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Error (Wire.Unknown_kind 0xfe) -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted"
  | Error e -> Alcotest.failf "unknown kind misreported: %s" (Wire.error_to_string e)

let test_frame_too_large () =
  let bytes = Bytes.make 8 '\xff' in
  match Wire.decode bytes ~pos:0 ~len:8 with
  | Error (Wire.Frame_too_large { limit; _ }) ->
      Alcotest.(check int) "limit advertised" Wire.max_payload limit
  | Ok _ -> Alcotest.fail "absurd length prefix accepted"
  | Error e -> Alcotest.failf "oversize misreported: %s" (Wire.error_to_string e)

let malformed label bytes =
  match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Error (Wire.Malformed _) -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e -> Alcotest.failf "%s: misreported: %s" label (Wire.error_to_string e)

(* The envelope head of a hand-built payload: the current version byte
   and a kind code. *)
let head kind = Printf.sprintf "%c%c" (Char.chr Wire.version) (Char.chr kind)

let frame_of_payload payload =
  let n = String.length payload in
  let b = Buffer.create (4 + n) in
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_string b payload;
  Buffer.to_bytes b

let test_malformed_bodies () =
  (* Complete frames whose payloads are garbage in various ways. *)
  malformed "empty payload rejected" (frame_of_payload "");
  malformed "version-only payload" (frame_of_payload (String.make 1 (Char.chr Wire.version)));
  (* Hello with a short body: kind 1 but no 8-byte node id. *)
  malformed "short body" (frame_of_payload (head 1 ^ "\x00\x00"));
  (* Bye (kind 12) with trailing junk after the (empty) body. *)
  malformed "trailing bytes" (frame_of_payload (head 12 ^ "\x00"));
  (* Ack whose boolean byte is 7. *)
  (let bytes = Wire.encode_bytes (Wire.Ack { rid = 0; ok = false; value = 0 }) in
   Bytes.set bytes (4 + 2 + 8) '\x07';
   malformed "bad boolean" bytes);
  (* Probe whose op code is out of range. *)
  (let bytes = Wire.encode_bytes (Wire.Probe { rid = 0; op = Clear; peer = 0; now = 0. }) in
   Bytes.set bytes (4 + 2 + 8) '\x2a';
   malformed "bad probe op" bytes);
  (* Counters (kind 11) whose list count claims far more entries than
     the body holds. *)
  (let payload = head 11 ^ String.make 16 '\x00' ^ "\x00\x00\xff\xff" in
   malformed "oversized list count" (frame_of_payload payload));
  (* Keys (kind 14) whose bitmap count claims more bytes than follow. *)
  (let payload = head 14 ^ String.make 8 '\x00' ^ "\x00\x00\x00\x09" ^ "\xff" in
   malformed "bitmap count past the body" (frame_of_payload payload));
  (* Find (kind 15) whose peer count is over the list limit, or claims
     more peers than the body holds: either fails before a peer array
     is allocated. *)
  (let fixed = String.make 24 '\x00' in
   malformed "peer count over the limit"
     (frame_of_payload (head 15 ^ fixed ^ "\x00\x01\x00\x01" ^ String.make 8 '\x00'));
   malformed "peer count past the body"
     (frame_of_payload (head 15 ^ fixed ^ "\x00\x00\x00\x03" ^ String.make 16 '\x00')));
  (* Out-of-range pos/len must be a structured error, not a crash. *)
  malformed "negative len" (Bytes.create 0 |> fun b ->
    match Wire.decode b ~pos:0 ~len:(-1) with
    | Error (Wire.Malformed _) -> frame_of_payload "\x00"  (* re-checked below *)
    | _ -> Alcotest.fail "negative len accepted");
  match Wire.decode (Bytes.create 4) ~pos:3 ~len:4 with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "pos+len beyond buffer accepted"

(* Kind 17 belonged to a retired request and is never reused: a frame
   carrying it, body and all, is an unknown kind, not a parse. *)
let test_retired_kind () =
  let bytes = frame_of_payload (head 17 ^ String.make 28 '\x00') in
  match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | Error (Wire.Unknown_kind 17) -> ()
  | Ok m -> Alcotest.failf "retired kind decoded as %a" Wire.pp m
  | Error e -> Alcotest.failf "retired kind misreported: %s" (Wire.error_to_string e)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_msg : Wire.msg QCheck.Gen.t =
  let open QCheck.Gen in
  let id = frequency [ (8, small_nat); (1, int) ] in
  let fl =
    frequency
      [ (8, float); (1, oneofl [ 0.; -0.; infinity; neg_infinity; nan; 1e15 ]) ]
  in
  let op = oneofl [ Wire.Live_count; Wire.Clear ] in
  let name = string_size ~gen:printable (int_bound 40) in
  oneof
    [
      map (fun node_id -> Wire.Hello { node_id }) id;
      map3
        (fun (nodes, members) (keys, stor) (eviction, seed) ->
          Wire.Setup { nodes; members; keys; stor; eviction; seed })
        (pair id id) (pair id id) (pair id id);
      map3
        (fun rid (span, src) (dst, key) -> Wire.Lookup { rid; span; src; dst; key })
        id (pair id id) (pair id id);
      map3
        (fun (rid, peer) (key, value) (now, ttl) ->
          Wire.Insert { rid; peer; key; value; now; ttl })
        (pair id id) (pair id id) (pair fl fl);
      map3 (fun span src (dst, key) -> Wire.Gossip { span; src; dst; key }) id id (pair id id);
      map3
        (fun (rid, peer) (key, refresh) (now, ttl) ->
          Wire.Get { rid; peer; key; refresh; now; ttl })
        (pair id id) (pair id bool) (pair fl fl);
      map3 (fun (rid, op) peer now -> Wire.Probe { rid; op; peer; now }) (pair id op) id fl;
      map3 (fun rid ok value -> Wire.Ack { rid; ok; value }) id bool id;
      map3
        (fun rid ok (value, expiry) -> Wire.Entry { rid; ok; value; expiry })
        id bool (pair id fl);
      map (fun rid -> Wire.Snapshot { rid }) id;
      map3
        (fun rid node_id counters -> Wire.Counters { rid; node_id; counters })
        id id
        (list_size (int_bound 12) (pair name id));
      return Wire.Bye;
      map2 (fun rid now -> Wire.Census { rid; now }) id fl;
      map3
        (fun (rid, key) now peers -> Wire.Find { rid; key; now; peers })
        (pair id id) fl
        (array_size (int_bound 24) id);
      map3 (fun rid pos value -> Wire.Found { rid; pos; value }) id id id;
      map2
        (fun rid bits -> Wire.Keys { rid; bits })
        id
        (frequency
           [ (4, string_size ~gen:char (int_bound 64));
             (1, string_size ~gen:char (int_range 1_000 5_000)) ]);
    ]

let arb_msg = QCheck.make ~print:(Format.asprintf "%a" Wire.pp) gen_msg

let prop_roundtrip =
  QCheck.Test.make ~name:"wire round-trip all kinds" ~count:2000 arb_msg (fun m ->
      let bytes = Wire.encode_bytes m in
      match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
      | Ok m' -> Wire.equal m m' && Wire.frame_length bytes ~pos:0 = Bytes.length bytes
      | Error _ -> false)

let prop_garbage_total =
  (* Decoding arbitrary bytes never raises; every outcome is Ok or a
     structured error. *)
  QCheck.Test.make ~name:"wire decode total on garbage" ~count:2000
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun s ->
      let bytes = Bytes.of_string s in
      match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
      | Ok _ | Error _ -> true)

let prop_corrupted_frame_total =
  (* Flipping one byte of a valid frame never raises either. *)
  QCheck.Test.make ~name:"wire decode total on corrupted frames" ~count:2000
    QCheck.(pair arb_msg (pair small_nat (int_bound 255)))
    (fun (m, (at, v)) ->
      let bytes = Wire.encode_bytes m in
      let at = at mod Bytes.length bytes in
      Bytes.set bytes at (Char.chr v);
      match Wire.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
      | Ok _ | Error _ -> true)

let qcheck_tests = [ prop_roundtrip; prop_garbage_total; prop_corrupted_frame_total ]

let () =
  Alcotest.run "pdht_wire"
    [
      ( "codec",
        [
          Alcotest.test_case "sample round-trips" `Quick test_samples_roundtrip;
          Alcotest.test_case "samples cover every kind" `Quick test_samples_cover_kinds;
          Alcotest.test_case "known bytes" `Quick test_known_bytes;
          Alcotest.test_case "frame stream" `Quick test_stream_of_frames;
          Alcotest.test_case "truncation at every prefix" `Quick test_truncation_every_prefix;
          Alcotest.test_case "bad version" `Quick test_bad_version;
          Alcotest.test_case "unknown kind" `Quick test_unknown_kind;
          Alcotest.test_case "retired kind 17 is unknown" `Quick test_retired_kind;
          Alcotest.test_case "frame too large" `Quick test_frame_too_large;
          Alcotest.test_case "malformed bodies" `Quick test_malformed_bodies;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
