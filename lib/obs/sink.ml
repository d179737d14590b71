type t = Event.t -> unit

let jsonl channel e =
  output_string channel (Json.to_string (Event.to_json e));
  output_char channel '\n'

let callback f = f
