type probe_op = Live_count | Clear

type msg =
  | Hello of { node_id : int }
  | Setup of {
      nodes : int;
      members : int;
      keys : int;
      stor : int;
      eviction : int;
      seed : int;
    }
  | Lookup of { rid : int; span : int; src : int; dst : int; key : int }
  | Insert of { rid : int; peer : int; key : int; value : int; now : float; ttl : float }
  | Gossip of { span : int; src : int; dst : int; key : int }
  | Get of { rid : int; peer : int; key : int; refresh : bool; now : float; ttl : float }
  | Probe of { rid : int; op : probe_op; peer : int; now : float }
  | Ack of { rid : int; ok : bool; value : int }
  | Entry of { rid : int; ok : bool; value : int; expiry : float }
  | Snapshot of { rid : int }
  | Counters of { rid : int; node_id : int; counters : (string * int) list }
  | Bye
  | Census of { rid : int; now : float }
  | Keys of { rid : int; bits : string }
  | Find of { rid : int; key : int; now : float; peers : int array }
  | Found of { rid : int; pos : int; value : int }

type error =
  | Truncated of { need : int; have : int }
  | Frame_too_large of { length : int; limit : int }
  | Bad_version of int
  | Unknown_kind of int
  | Malformed of string

let version = 3

(* Counter snapshots and census bitmaps dominate payload size: a few
   hundred instrument names at ~40 bytes each, or one bit per key
   (2.5 KB at 20,000 keys).  1 MiB leaves two orders of magnitude of
   headroom while bounding what a corrupt length prefix can demand. *)
let max_payload = 1 lsl 20

(* A registry snapshot has one entry per instrument; anything past this
   is a corrupt count, not a real simulator. *)
let max_list = 65_536
let max_string = 4_096

let kind_code = function
  | Hello _ -> 1
  | Setup _ -> 2
  | Lookup _ -> 3
  | Insert _ -> 4
  | Gossip _ -> 5
  | Get _ -> 6
  | Probe _ -> 7
  | Ack _ -> 8
  | Entry _ -> 9
  | Snapshot _ -> 10
  | Counters _ -> 11
  | Bye -> 12
  | Census _ -> 13
  | Keys _ -> 14
  | Find _ -> 15
  | Found _ -> 16

(* Codes run 1 .. kinds.  17 was a retired request kind and is never
   reused: it decodes as [Unknown_kind 17]. *)
let kinds = 16

let probe_code = function Live_count -> 0 | Clear -> 1

(* ---- encoding ----------------------------------------------------- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* Body bytes of each kind, by kind code (slot 0 unused): 8 an integer
   or float, 1 a boolean or probe code.  -1 marks the kinds whose body
   holds a count-prefixed string, blob or list: 4 bytes of count plus
   the bytes or items. *)
let fixed_body = [| -1; 8; 48; 40; 48; 32; 41; 25; 17; 25; 8; -1; 0; 16; -1; -1; 24 |]

let body_length = function
  | Counters { counters; _ } ->
      List.fold_left (fun n (name, _) -> n + 12 + String.length name) 20 counters
  | Keys { bits; _ } -> 12 + String.length bits
  | Find { peers; _ } -> 28 + (8 * Array.length peers)
  | msg -> fixed_body.(kind_code msg)

let encode_body b msg =
  match msg with
  | Hello { node_id } -> put_i64 b node_id
  | Setup { nodes; members; keys; stor; eviction; seed } ->
      put_i64 b nodes;
      put_i64 b members;
      put_i64 b keys;
      put_i64 b stor;
      put_i64 b eviction;
      put_i64 b seed
  | Lookup { rid; span; src; dst; key } ->
      put_i64 b rid;
      put_i64 b span;
      put_i64 b src;
      put_i64 b dst;
      put_i64 b key
  | Insert { rid; peer; key; value; now; ttl } ->
      put_i64 b rid;
      put_i64 b peer;
      put_i64 b key;
      put_i64 b value;
      put_f64 b now;
      put_f64 b ttl
  | Gossip { span; src; dst; key } ->
      put_i64 b span;
      put_i64 b src;
      put_i64 b dst;
      put_i64 b key
  | Get { rid; peer; key; refresh; now; ttl } ->
      put_i64 b rid;
      put_i64 b peer;
      put_i64 b key;
      put_bool b refresh;
      put_f64 b now;
      put_f64 b ttl
  | Probe { rid; op; peer; now } ->
      put_i64 b rid;
      put_u8 b (probe_code op);
      put_i64 b peer;
      put_f64 b now
  | Ack { rid; ok; value } ->
      put_i64 b rid;
      put_bool b ok;
      put_i64 b value
  | Entry { rid; ok; value; expiry } ->
      put_i64 b rid;
      put_bool b ok;
      put_i64 b value;
      put_f64 b expiry
  | Snapshot { rid } -> put_i64 b rid
  | Counters { rid; node_id; counters } ->
      put_i64 b rid;
      put_i64 b node_id;
      put_u32 b (List.length counters);
      List.iter
        (fun (name, v) ->
          put_string b name;
          put_i64 b v)
        counters
  | Bye -> ()
  | Census { rid; now } ->
      put_i64 b rid;
      put_f64 b now
  | Keys { rid; bits } ->
      put_i64 b rid;
      put_u32 b (String.length bits);
      Buffer.add_string b bits
  | Find { rid; key; now; peers } ->
      put_i64 b rid;
      put_i64 b key;
      put_f64 b now;
      put_u32 b (Array.length peers);
      Array.iter (put_i64 b) peers
  | Found { rid; pos; value } ->
      put_i64 b rid;
      put_i64 b pos;
      put_i64 b value

let encode b msg =
  put_u32 b (2 + body_length msg);
  put_u8 b version;
  put_u8 b (kind_code msg);
  encode_body b msg

let encode_bytes msg =
  let b = Buffer.create (6 + body_length msg) in
  encode b msg;
  Buffer.to_bytes b

(* ---- decoding ----------------------------------------------------- *)

exception Bad of string

(* Reads at an offset the caller has checked lies inside the frame. *)
let[@inline] u32_at buf p = Int32.to_int (Bytes.get_int32_be buf p) land 0xFFFF_FFFF
let[@inline] i64_at buf p = Int64.to_int (Bytes.get_int64_be buf p)
let[@inline] f64_at buf p = Int64.float_of_bits (Bytes.get_int64_be buf p)

let bool_at buf p =
  match Bytes.get_uint8 buf p with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad (Printf.sprintf "bad boolean byte %d" v))

let probe_at buf p =
  match Bytes.get_uint8 buf p with
  | 0 -> Live_count
  | 1 -> Clear
  | v -> raise (Bad (Printf.sprintf "bad probe op %d" v))

(* A fixed-width body starting at [b], whose length the caller has
   matched against [fixed_body]. *)
let decode_fixed kind buf b =
  match kind with
  | 1 -> Hello { node_id = i64_at buf b }
  | 2 ->
      Setup
        {
          nodes = i64_at buf b;
          members = i64_at buf (b + 8);
          keys = i64_at buf (b + 16);
          stor = i64_at buf (b + 24);
          eviction = i64_at buf (b + 32);
          seed = i64_at buf (b + 40);
        }
  | 3 ->
      Lookup
        {
          rid = i64_at buf b;
          span = i64_at buf (b + 8);
          src = i64_at buf (b + 16);
          dst = i64_at buf (b + 24);
          key = i64_at buf (b + 32);
        }
  | 4 ->
      Insert
        {
          rid = i64_at buf b;
          peer = i64_at buf (b + 8);
          key = i64_at buf (b + 16);
          value = i64_at buf (b + 24);
          now = f64_at buf (b + 32);
          ttl = f64_at buf (b + 40);
        }
  | 5 ->
      Gossip
        {
          span = i64_at buf b;
          src = i64_at buf (b + 8);
          dst = i64_at buf (b + 16);
          key = i64_at buf (b + 24);
        }
  | 6 ->
      Get
        {
          rid = i64_at buf b;
          peer = i64_at buf (b + 8);
          key = i64_at buf (b + 16);
          refresh = bool_at buf (b + 24);
          now = f64_at buf (b + 25);
          ttl = f64_at buf (b + 33);
        }
  | 7 ->
      Probe
        {
          rid = i64_at buf b;
          op = probe_at buf (b + 8);
          peer = i64_at buf (b + 9);
          now = f64_at buf (b + 17);
        }
  | 8 -> Ack { rid = i64_at buf b; ok = bool_at buf (b + 8); value = i64_at buf (b + 9) }
  | 9 ->
      Entry
        {
          rid = i64_at buf b;
          ok = bool_at buf (b + 8);
          value = i64_at buf (b + 9);
          expiry = f64_at buf (b + 17);
        }
  | 10 -> Snapshot { rid = i64_at buf b }
  | 12 -> Bye
  | 13 -> Census { rid = i64_at buf b; now = f64_at buf (b + 8) }
  | 16 -> Found { rid = i64_at buf b; pos = i64_at buf (b + 8); value = i64_at buf (b + 16) }
  | _ -> assert false (* the caller dispatches only fixed-width kinds here *)

(* The other bodies are read through a cursor over the payload slice.
   Every read checks the remaining length first, so a corrupt count
   fails with [Malformed] before anything is allocated for it. *)
type cursor = { buf : Bytes.t; mutable pos : int; stop : int }

let need c n = if c.stop - c.pos < n then raise (Bad "short body")

let get_u32 c =
  need c 4;
  let v = u32_at c.buf c.pos in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = i64_at c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = f64_at c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let take c n =
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_string c =
  let n = get_u32 c in
  if n > max_string then raise (Bad (Printf.sprintf "string length %d over limit" n));
  take c n

(* A byte string bounded only by the frame it sits in (a census bitmap
   runs to keys / 8 bytes). *)
let get_blob c = take c (get_u32 c)

let get_peers c =
  let n = get_u32 c in
  if n > max_list then raise (Bad (Printf.sprintf "peer list length %d over limit" n));
  need c (8 * n);
  let p = c.pos in
  c.pos <- p + (8 * n);
  Array.init n (fun i -> i64_at c.buf (p + (8 * i)))

let decode_variable kind c =
  match kind with
  | 11 ->
      let rid = get_i64 c in
      let node_id = get_i64 c in
      let n = get_u32 c in
      if n > max_list then raise (Bad (Printf.sprintf "counter list length %d over limit" n));
      let counters =
        List.init n (fun _ ->
            let name = get_string c in
            let v = get_i64 c in
            (name, v))
      in
      Counters { rid; node_id; counters }
  | 14 ->
      let rid = get_i64 c in
      let bits = get_blob c in
      Keys { rid; bits }
  | 15 ->
      let rid = get_i64 c in
      let key = get_i64 c in
      let now = get_f64 c in
      let peers = get_peers c in
      Find { rid; key; now; peers }
  | _ -> assert false (* the caller dispatches only counted kinds here *)

let trailing n = Malformed (Printf.sprintf "%d trailing bytes" n)

let decode buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Error (Malformed "decode: pos/len out of range")
  else if len < 4 then Error (Truncated { need = 4; have = len })
  else
    let plen = u32_at buf pos in
    if plen > max_payload then Error (Frame_too_large { length = plen; limit = max_payload })
    else if plen < 2 then Error (Malformed "payload shorter than its envelope")
    else if len < 4 + plen then Error (Truncated { need = 4 + plen; have = len })
    else
      let v = Bytes.get_uint8 buf (pos + 4) in
      if v <> version then Error (Bad_version v)
      else
        let kind = Bytes.get_uint8 buf (pos + 5) in
        if kind < 1 || kind > kinds then Error (Unknown_kind kind)
        else
          let body = pos + 6 and blen = plen - 2 in
          let want = fixed_body.(kind) in
          try
            if want < 0 then begin
              let c = { buf; pos = body; stop = body + blen } in
              let msg = decode_variable kind c in
              if c.pos <> c.stop then Error (trailing (c.stop - c.pos)) else Ok msg
            end
            else if blen < want then Error (Malformed "short body")
            else if blen > want then Error (trailing (blen - want))
            else Ok (decode_fixed kind buf body)
          with Bad why -> Error (Malformed why)

let frame_length buf ~pos = 4 + u32_at buf pos

(* ---- equality and printing ---------------------------------------- *)

(* Floats compare by bit pattern so NaN payloads round-trip in tests. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  match (a, b) with
  | Hello a, Hello b -> a.node_id = b.node_id
  | Setup a, Setup b ->
      a.nodes = b.nodes && a.members = b.members && a.keys = b.keys && a.stor = b.stor
      && a.eviction = b.eviction && a.seed = b.seed
  | Lookup a, Lookup b ->
      a.rid = b.rid && a.span = b.span && a.src = b.src && a.dst = b.dst && a.key = b.key
  | Insert a, Insert b ->
      a.rid = b.rid && a.peer = b.peer && a.key = b.key && a.value = b.value
      && feq a.now b.now && feq a.ttl b.ttl
  | Gossip a, Gossip b ->
      a.span = b.span && a.src = b.src && a.dst = b.dst && a.key = b.key
  | Get a, Get b ->
      a.rid = b.rid && a.peer = b.peer && a.key = b.key && a.refresh = b.refresh
      && feq a.now b.now && feq a.ttl b.ttl
  | Probe a, Probe b -> a.rid = b.rid && a.op = b.op && a.peer = b.peer && feq a.now b.now
  | Ack a, Ack b -> a.rid = b.rid && a.ok = b.ok && a.value = b.value
  | Entry a, Entry b ->
      a.rid = b.rid && a.ok = b.ok && a.value = b.value && feq a.expiry b.expiry
  | Snapshot a, Snapshot b -> a.rid = b.rid
  | Counters a, Counters b ->
      a.rid = b.rid && a.node_id = b.node_id
      && List.length a.counters = List.length b.counters
      && List.for_all2
           (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && v1 = v2)
           a.counters b.counters
  | Bye, Bye -> true
  | Census a, Census b -> a.rid = b.rid && feq a.now b.now
  | Keys a, Keys b -> a.rid = b.rid && String.equal a.bits b.bits
  | Find a, Find b -> a.rid = b.rid && a.key = b.key && feq a.now b.now && a.peers = b.peers
  | Found a, Found b -> a.rid = b.rid && a.pos = b.pos && a.value = b.value
  | ( ( Hello _ | Setup _ | Lookup _ | Insert _ | Gossip _ | Get _ | Probe _ | Ack _
      | Entry _ | Snapshot _ | Counters _ | Bye | Census _ | Keys _ | Find _ | Found _ ),
      _ ) ->
      false

let probe_label = function Live_count -> "live_count" | Clear -> "clear"

let pp ppf = function
  | Hello { node_id } -> Format.fprintf ppf "hello(node=%d)" node_id
  | Setup { nodes; members; keys; stor; eviction; seed } ->
      Format.fprintf ppf "setup(nodes=%d members=%d keys=%d stor=%d eviction=%d seed=%d)"
        nodes members keys stor eviction seed
  | Lookup { rid; span; src; dst; key } ->
      Format.fprintf ppf "lookup(rid=%d span=%d %d->%d key=%d)" rid span src dst key
  | Insert { rid; peer; key; value; now; ttl } ->
      Format.fprintf ppf "insert(rid=%d peer=%d key=%d value=%d now=%g ttl=%g)" rid peer
        key value now ttl
  | Gossip { span; src; dst; key } ->
      Format.fprintf ppf "gossip(span=%d %d->%d key=%d)" span src dst key
  | Get { rid; peer; key; refresh; now; ttl } ->
      Format.fprintf ppf "get(rid=%d peer=%d key=%d refresh=%b now=%g ttl=%g)" rid peer
        key refresh now ttl
  | Probe { rid; op; peer; now } ->
      Format.fprintf ppf "probe(rid=%d op=%s peer=%d now=%g)" rid (probe_label op) peer now
  | Ack { rid; ok; value } -> Format.fprintf ppf "ack(rid=%d ok=%b value=%d)" rid ok value
  | Entry { rid; ok; value; expiry } ->
      Format.fprintf ppf "entry(rid=%d ok=%b value=%d expiry=%g)" rid ok value expiry
  | Snapshot { rid } -> Format.fprintf ppf "snapshot(rid=%d)" rid
  | Counters { rid; node_id; counters } ->
      Format.fprintf ppf "counters(rid=%d node=%d n=%d)" rid node_id (List.length counters)
  | Bye -> Format.fprintf ppf "bye"
  | Census { rid; now } -> Format.fprintf ppf "census(rid=%d now=%g)" rid now
  | Keys { rid; bits } -> Format.fprintf ppf "keys(rid=%d bytes=%d)" rid (String.length bits)
  | Find { rid; key; now; peers } ->
      Format.fprintf ppf "find(rid=%d key=%d now=%g peers=%d)" rid key now
        (Array.length peers)
  | Found { rid; pos; value } -> Format.fprintf ppf "found(rid=%d pos=%d value=%d)" rid pos value

let error_to_string = function
  | Truncated { need; have } -> Printf.sprintf "truncated frame: need %d bytes, have %d" need have
  | Frame_too_large { length; limit } ->
      Printf.sprintf "frame payload %d exceeds limit %d" length limit
  | Bad_version v -> Printf.sprintf "unsupported wire version %d" v
  | Unknown_kind k -> Printf.sprintf "unknown message kind %d" k
  | Malformed why -> "malformed frame: " ^ why
