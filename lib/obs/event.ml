type category =
  | Query
  | Dht_lookup
  | Replica_flood
  | Broadcast
  | Index_insert
  | Ttl_reset
  | Gossip
  | Maintenance
  | Churn
  | Engine
  | Net
  | Fault

type outcome = Hit | Miss | Found | Not_found | Completed | Dropped

type t = {
  time : float;
  category : category;
  peer : int;
  key_index : int;
  hops : int;
  messages : int;
  outcome : outcome;
  detail : string;
  span : int;
  parent : int;
}

let make ?(peer = -1) ?(key_index = -1) ?(hops = 0) ?(messages = 0)
    ?(outcome = Completed) ?(detail = "") ?(span = -1) ?(parent = -1) ~time
    category =
  { time; category; peer; key_index; hops; messages; outcome; detail; span; parent }

let all_categories =
  [ Query; Dht_lookup; Replica_flood; Broadcast; Index_insert; Ttl_reset;
    Gossip; Maintenance; Churn; Engine; Net; Fault ]

let category_label = function
  | Query -> "query"
  | Dht_lookup -> "dht-lookup"
  | Replica_flood -> "replica-flood"
  | Broadcast -> "broadcast"
  | Index_insert -> "index-insert"
  | Ttl_reset -> "ttl-reset"
  | Gossip -> "gossip"
  | Maintenance -> "maintenance"
  | Churn -> "churn"
  | Engine -> "engine"
  | Net -> "net"
  | Fault -> "fault"

let category_of_label s =
  List.find_opt (fun c -> category_label c = String.lowercase_ascii s) all_categories

let all_outcomes = [ Hit; Miss; Found; Not_found; Completed; Dropped ]

let outcome_label = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Found -> "found"
  | Not_found -> "not-found"
  | Completed -> "completed"
  | Dropped -> "dropped"

let outcome_of_label s =
  List.find_opt (fun o -> outcome_label o = String.lowercase_ascii s) all_outcomes

let to_json e =
  let base =
    [ ("t", Json.Float e.time); ("cat", Json.String (category_label e.category)) ]
  in
  (* Default-valued fields are elided: a trace file is mostly events,
     so line size matters more than schema uniformity. *)
  let opt name v default to_j = if v = default then [] else [ (name, to_j v) ] in
  Json.Obj
    (base
    @ opt "peer" e.peer (-1) (fun p -> Json.Int p)
    @ opt "key" e.key_index (-1) (fun k -> Json.Int k)
    @ opt "hops" e.hops 0 (fun h -> Json.Int h)
    @ opt "msgs" e.messages 0 (fun m -> Json.Int m)
    @ opt "outcome" e.outcome Completed (fun o -> Json.String (outcome_label o))
    @ opt "detail" e.detail "" (fun d -> Json.String d)
    @ opt "span" e.span (-1) (fun s -> Json.Int s)
    @ opt "parent" e.parent (-1) (fun p -> Json.Int p))

let of_json json =
  match json with
  | Json.Obj _ -> (
      let time = Option.bind (Json.member "t" json) Json.to_float_opt in
      let category =
        Option.bind
          (Option.bind (Json.member "cat" json) Json.to_string_opt)
          category_of_label
      in
      match (time, category) with
      | Some time, Some category ->
          let int_field name default =
            match Option.bind (Json.member name json) Json.to_int_opt with
            | Some i -> i
            | None -> default
          in
          let outcome =
            match
              Option.bind
                (Option.bind (Json.member "outcome" json) Json.to_string_opt)
                outcome_of_label
            with
            | Some o -> o
            | None -> Completed
          in
          let detail =
            match Option.bind (Json.member "detail" json) Json.to_string_opt with
            | Some d -> d
            | None -> ""
          in
          Ok
            {
              time;
              category;
              peer = int_field "peer" (-1);
              key_index = int_field "key" (-1);
              hops = int_field "hops" 0;
              messages = int_field "msgs" 0;
              outcome;
              detail;
              span = int_field "span" (-1);
              parent = int_field "parent" (-1);
            }
      | None, _ -> Error "event: missing or malformed \"t\""
      | _, None -> Error "event: missing or unknown \"cat\"")
  | _ -> Error "event: expected an object"
