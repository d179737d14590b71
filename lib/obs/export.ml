let stamp ?run ?time ?node fields =
  let run_field = match run with Some r -> [ ("run", Json.String r) ] | None -> [] in
  let time_field = match time with Some t -> [ ("time", Json.Float t) ] | None -> [] in
  let node_field =
    match node with Some k -> [ ("node_id", Json.Int k) ] | None -> []
  in
  fields @ run_field @ time_field @ node_field

let metric_json ?run ?time ?node name value =
  match value with
  | Registry.Counter_v n ->
      Json.Obj
        (stamp ?run ?time ?node
           [ ("type", Json.String "counter"); ("name", Json.String name);
             ("value", Json.Int n) ])
  | Registry.Gauge_v v ->
      Json.Obj
        (stamp ?run ?time ?node
           [ ("type", Json.String "gauge"); ("name", Json.String name);
             ("value", Json.Float v) ])
  | Registry.Histogram_v s ->
      let summary_fields =
        match Histogram.summary_to_json s with Json.Obj fields -> fields | _ -> []
      in
      Json.Obj
        (stamp ?run ?time ?node
           ([ ("type", Json.String "histogram"); ("name", Json.String name) ]
           @ summary_fields))

let write_jsonl ?run ?time ?node channel snapshot =
  List.iter
    (fun (name, value) ->
      output_string channel (Json.to_string (metric_json ?run ?time ?node name value));
      output_char channel '\n')
    snapshot

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_header = "name,type,value,count,mean,p50,p90,p95,p99,max"

let csv_row name value =
  match value with
  | Registry.Counter_v n ->
      Printf.sprintf "%s,counter,%d,,,,,,," (csv_escape name) n
  | Registry.Gauge_v v -> Printf.sprintf "%s,gauge,%g,,,,,,," (csv_escape name) v
  | Registry.Histogram_v (s : Histogram.summary) ->
      Printf.sprintf "%s,histogram,,%d,%g,%g,%g,%g,%g,%g" (csv_escape name) s.count
        s.mean s.p50 s.p90 s.p95 s.p99 s.max

let write_csv channel snapshot =
  List.iter
    (fun line ->
      output_string channel line;
      output_char channel '\n')
    (csv_header :: List.map (fun (n, v) -> csv_row n v) snapshot)

let to_file ?run ?time ?node ~path snapshot =
  let channel = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out channel)
    (fun () ->
      if Filename.check_suffix path ".csv" then write_csv channel snapshot
      else write_jsonl ?run ?time ?node channel snapshot)

(* Schema checks beyond well-formed JSON: trace-event lines (member
   "cat") must round-trip through the event codec with sane span ids,
   and timeline lines (member "tl") must carry a non-negative window
   index, an ordered [t0, t1) range, and numeric series values. *)
let validate_event json =
  match Event.of_json json with
  | Error _ as e -> e
  | Ok e ->
      if e.Event.span < -1 then Error "event: span must be >= -1"
      else if e.Event.parent < -1 then Error "event: parent must be >= -1"
      else if e.Event.span = -1 && e.Event.parent >= 0 then
        Error "event: parent set on a span-less event"
      else Ok ()

let validate_timeline json =
  let num name =
    match Option.bind (Json.member name json) Json.to_float_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "timeline: missing or non-numeric %S" name)
  in
  match Option.bind (Json.member "tl" json) Json.to_int_opt with
  | None -> Error "timeline: \"tl\" must be an integer"
  | Some k when k < 0 -> Error "timeline: negative window index"
  | Some _ -> (
      match (num "t0", num "t1") with
      | Error _ as e, _ | _, (Error _ as e) -> e
      | Ok t0, Ok t1 ->
          if not (t1 > t0) then Error "timeline: t1 must exceed t0"
          else
            let bad_series =
              match json with
              | Json.Obj fields ->
                  List.find_opt
                    (fun (name, v) ->
                      name <> "tl" && name <> "t0" && name <> "t1"
                      && Json.to_float_opt v = None)
                    fields
              | _ -> None
            in
            (match bad_series with
            | Some (name, _) ->
                Error (Printf.sprintf "timeline: non-numeric series %S" name)
            | None -> Ok ()))

(* Per-node JSONL (process driver) stamps every line with the emitting
   node; the merge tooling keys on it, so a present [node_id] must be a
   non-negative integer whatever the line's kind. *)
let validate_node_id json =
  match Json.member "node_id" json with
  | None -> Ok ()
  | Some v -> (
      match Json.to_int_opt v with
      | Some k when k >= 0 -> Ok ()
      | Some _ -> Error "node_id: must be non-negative"
      | None -> Error "node_id: must be an integer")

let validate_line json =
  match validate_node_id json with
  | Error _ as e -> e
  | Ok () ->
      if Json.member "cat" json <> None then validate_event json
      else if Json.member "tl" json <> None then validate_timeline json
      else Ok ()

let validate_jsonl_file ~path =
  let channel = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in channel)
    (fun () ->
      let valid = ref 0 in
      let line_no = ref 0 in
      let result = ref (Ok 0) in
      (try
         while !result = Ok 0 do
           let line = input_line channel in
           incr line_no;
           if String.trim line <> "" then
             match
               Result.bind (Json.of_string line) (fun json ->
                   Result.map (fun () -> json) (validate_line json))
             with
             | Ok _ -> incr valid
             | Error msg ->
                 result := Error (Printf.sprintf "line %d: %s" !line_no msg)
         done
       with End_of_file -> ());
      match !result with Ok _ -> Ok !valid | Error _ as e -> e)
