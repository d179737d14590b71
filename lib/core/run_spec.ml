module Scenario = Pdht_work.Scenario

type t = {
  tag : string;
  scenario : Scenario.t;
  strategy : Strategy.t;
  options : System.options;
  task_id : int;
}

let default_strategy = Strategy.Partial_index { key_ttl = Float.nan }

let default_tag scenario strategy =
  scenario.Scenario.name ^ "/" ^ Strategy.label strategy

let make ?tag ?(strategy = default_strategy) ?(options = System.default_options)
    ?(task_id = 0) scenario =
  let tag = match tag with Some t -> t | None -> default_tag scenario strategy in
  { tag; scenario; strategy; options; task_id }

let run_seed t =
  Pdht_util.Rng.derive_seed ~seed:t.scenario.Scenario.seed ~stream:t.task_id

let with_strategy strategy t =
  let tag =
    if t.tag = default_tag t.scenario t.strategy then default_tag t.scenario strategy
    else t.tag
  in
  { t with strategy; tag }

let over_seeds seeds t =
  List.map
    (fun seed ->
      {
        t with
        tag = Printf.sprintf "%s seed=%d" t.tag seed;
        scenario = { t.scenario with Scenario.seed };
      })
    seeds
