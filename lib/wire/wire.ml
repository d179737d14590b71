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

let kinds = 14

let probe_code = function Live_count -> 0 | Clear -> 1

let probe_of_code = function 0 -> Some Live_count | 1 -> Some Clear | _ -> None

(* ---- encoding ----------------------------------------------------- *)

let put_u8 b v = Buffer.add_uint8 b (v land 0xFF)
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let put_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let put_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)
let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* Body bytes per kind: 8 an integer or float, 1 a boolean or probe
   code, 4 plus the bytes a string or blob, 4 plus the items a list. *)
let body_length = function
  | Hello _ | Snapshot _ -> 8
  | Setup _ | Insert _ -> 48
  | Lookup _ -> 40
  | Gossip _ -> 32
  | Get _ -> 41
  | Probe _ | Entry _ -> 25
  | Ack _ -> 17
  | Counters { counters; _ } ->
      List.fold_left (fun n (name, _) -> n + 12 + String.length name) 20 counters
  | Bye -> 0
  | Census _ -> 16
  | Keys { bits; _ } -> 12 + String.length bits

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

(* Body reader: a cursor over the payload slice.  Every read checks the
   remaining length, so a corrupt frame fails with [Malformed] instead
   of an out-of-bounds access. *)
type cursor = { buf : Bytes.t; mutable pos : int; stop : int }

exception Bad of string

let need c n = if c.stop - c.pos < n then raise (Bad "short body")

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  let a = get_u8 c in
  let b = get_u8 c in
  let d = get_u8 c in
  let e = get_u8 c in
  (a lsl 24) lor (b lsl 16) lor (d lsl 8) lor e

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.to_int !v

let get_f64 c =
  need c 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.float_of_bits !v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad (Printf.sprintf "bad boolean byte %d" v))

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

let decode_body kind c =
  match kind with
  | 1 -> Hello { node_id = get_i64 c }
  | 2 ->
      let nodes = get_i64 c in
      let members = get_i64 c in
      let keys = get_i64 c in
      let stor = get_i64 c in
      let eviction = get_i64 c in
      let seed = get_i64 c in
      Setup { nodes; members; keys; stor; eviction; seed }
  | 3 ->
      let rid = get_i64 c in
      let span = get_i64 c in
      let src = get_i64 c in
      let dst = get_i64 c in
      let key = get_i64 c in
      Lookup { rid; span; src; dst; key }
  | 4 ->
      let rid = get_i64 c in
      let peer = get_i64 c in
      let key = get_i64 c in
      let value = get_i64 c in
      let now = get_f64 c in
      let ttl = get_f64 c in
      Insert { rid; peer; key; value; now; ttl }
  | 5 ->
      let span = get_i64 c in
      let src = get_i64 c in
      let dst = get_i64 c in
      let key = get_i64 c in
      Gossip { span; src; dst; key }
  | 6 ->
      let rid = get_i64 c in
      let peer = get_i64 c in
      let key = get_i64 c in
      let refresh = get_bool c in
      let now = get_f64 c in
      let ttl = get_f64 c in
      Get { rid; peer; key; refresh; now; ttl }
  | 7 ->
      let rid = get_i64 c in
      let op =
        let code = get_u8 c in
        match probe_of_code code with
        | Some op -> op
        | None -> raise (Bad (Printf.sprintf "bad probe op %d" code))
      in
      let peer = get_i64 c in
      let now = get_f64 c in
      Probe { rid; op; peer; now }
  | 8 ->
      let rid = get_i64 c in
      let ok = get_bool c in
      let value = get_i64 c in
      Ack { rid; ok; value }
  | 9 ->
      let rid = get_i64 c in
      let ok = get_bool c in
      let value = get_i64 c in
      let expiry = get_f64 c in
      Entry { rid; ok; value; expiry }
  | 10 -> Snapshot { rid = get_i64 c }
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
  | 12 -> Bye
  | 13 ->
      let rid = get_i64 c in
      let now = get_f64 c in
      Census { rid; now }
  | 14 ->
      let rid = get_i64 c in
      let bits = get_blob c in
      Keys { rid; bits }
  | _ -> assert false (* kind was range-checked by the caller *)

let decode buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    Error (Malformed "decode: pos/len out of range")
  else if len < 4 then Error (Truncated { need = 4; have = len })
  else
    let plen =
      (Char.code (Bytes.get buf pos) lsl 24)
      lor (Char.code (Bytes.get buf (pos + 1)) lsl 16)
      lor (Char.code (Bytes.get buf (pos + 2)) lsl 8)
      lor Char.code (Bytes.get buf (pos + 3))
    in
    if plen > max_payload then Error (Frame_too_large { length = plen; limit = max_payload })
    else if plen < 2 then Error (Malformed "payload shorter than its envelope")
    else if len < 4 + plen then Error (Truncated { need = 4 + plen; have = len })
    else
      let c = { buf; pos = pos + 4; stop = pos + 4 + plen } in
      let v = get_u8 c in
      if v <> version then Error (Bad_version v)
      else
        let kind = get_u8 c in
        if kind < 1 || kind > kinds then Error (Unknown_kind kind)
        else
          match decode_body kind c with
          | msg ->
              if c.pos <> c.stop then
                Error (Malformed (Printf.sprintf "%d trailing bytes" (c.stop - c.pos)))
              else Ok (msg, 4 + plen)
          | exception Bad why -> Error (Malformed why)

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
  | ( ( Hello _ | Setup _ | Lookup _ | Insert _ | Gossip _ | Get _ | Probe _ | Ack _
      | Entry _ | Snapshot _ | Counters _ | Bye | Census _ | Keys _ ),
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

let error_to_string = function
  | Truncated { need; have } -> Printf.sprintf "truncated frame: need %d bytes, have %d" need have
  | Frame_too_large { length; limit } ->
      Printf.sprintf "frame payload %d exceeds limit %d" length limit
  | Bad_version v -> Printf.sprintf "unsupported wire version %d" v
  | Unknown_kind k -> Printf.sprintf "unknown message kind %d" k
  | Malformed why -> "malformed frame: " ^ why
