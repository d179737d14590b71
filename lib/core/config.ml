type t = {
  num_peers : int;
  active_members : int;
  keys : int;
  repl : int;
  stor : int;
  backend : Pdht_dht.Dht.backend;
  strategy : Strategy.t;
}

let overlay_degree = 4

let default_search ~num_peers =
  {
    Pdht_overlay.Unstructured_search.walkers = 16;
    max_steps = max 64 (2 * num_peers);
    check_every = 4;
  }

(* [?eviction] has one value and no reader: benchmark/workload.ml passes it. *)
let make ?(backend = Pdht_dht.Dht.Pgrid_backend) ?eviction:_ ~num_peers ~active_members ~keys
    ~repl ~stor ~strategy () =
  if num_peers <= overlay_degree then
    invalid_arg "Config.make: need more peers than the overlay degree (4)";
  if active_members < 2 || active_members > num_peers then
    invalid_arg "Config.make: active_members must be in [2, num_peers]";
  if keys < 1 then invalid_arg "Config.make: need >= 1 key";
  if repl < 1 || repl > num_peers then invalid_arg "Config.make: repl must be in [1, num_peers]";
  if stor < 1 then invalid_arg "Config.make: stor must be >= 1";
  { num_peers; active_members; keys; repl; stor; backend; strategy }

let active_members_for ~num_peers ~repl ~stor ~expected_index_size =
  if expected_index_size < 0. then invalid_arg "Config.active_members_for: negative index size";
  let needed =
    int_of_float (Float.ceil (expected_index_size *. float_of_int repl /. float_of_int stor))
  in
  max 2 (max (min repl num_peers) (min needed num_peers))
