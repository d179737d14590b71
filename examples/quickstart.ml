(* Quickstart: the selection algorithm in five minutes.

   Builds a small PDHT deployment, issues queries and shows the three
   phases of the paper's Section-5 algorithm:
     1. a cold query misses the index, broadcast-searches the
        unstructured network and inserts the resolved key;
     2. a repeat query is answered from the index at a fraction of the
        cost;
     3. a key nobody asks about for keyTtl seconds falls out of the
        index again.

   Run with: dune exec examples/quickstart.exe *)

module Pdht = Pdht_core.Pdht
module Config = Pdht_core.Config
module Strategy = Pdht_core.Strategy

let describe label (r : Pdht.query_result) =
  let source =
    match r.Pdht.source with
    | Pdht.From_index -> "answered from the INDEX"
    | Pdht.From_broadcast -> "answered by BROADCAST search"
    | Pdht.Not_found -> "NOT FOUND"
  in
  Printf.printf "%-28s %-30s %4d msgs  (index %d, replica-flood %d, broadcast %d, insert %d)\n"
    label source (Pdht.total_messages r) r.Pdht.index_messages r.Pdht.replica_flood_messages
    r.Pdht.broadcast_messages r.Pdht.insert_messages

let () =
  let key_ttl = 300. in
  (* 500 peers; 100 of them also maintain the structured index.  Every
     key is replicated on 10 random peers as content. *)
  let config =
    Config.make ~num_peers:500 ~active_members:100 ~keys:1_000 ~repl:10 ~stor:100
      ~strategy:(Strategy.Partial_index { key_ttl })
      ()
  in
  let rng = Pdht_util.Rng.create ~seed:7 in
  let pdht = Pdht.create rng config in
  Printf.printf "PDHT with %d peers (%d DHT members), %d keys, keyTtl = %.0f s\n\n"
    500 config.Config.active_members 1_000 key_ttl;

  Printf.printf "-- phase 1: cold key --\n";
  describe "t=0    query key 42" (Pdht.query pdht ~now:0. ~peer:3 ~key_index:42);

  Printf.printf "\n-- phase 2: warm key --\n";
  describe "t=10   query key 42 again" (Pdht.query pdht ~now:10. ~peer:77 ~key_index:42);
  describe "t=20   and again" (Pdht.query pdht ~now:20. ~peer:410 ~key_index:42);

  Printf.printf "\n-- phase 3: expiry --\n";
  Printf.printf "key 42 indexed at t=100?  %b   (TTL refreshed by the t=20 query)\n"
    (Pdht.index_hit_probe pdht ~now:100. ~key_index:42);
  Printf.printf "key 42 indexed at t=400?  %b   (no query for > keyTtl seconds)\n"
    (Pdht.index_hit_probe pdht ~now:400. ~key_index:42);
  describe "t=400  query key 42 once more" (Pdht.query pdht ~now:400. ~peer:9 ~key_index:42);

  Printf.printf "\n-- the index is query-adaptive --\n";
  (* Hammer a handful of hot keys, touch a cold one once. *)
  for round = 1 to 20 do
    for key_index = 0 to 4 do
      ignore (Pdht.query pdht ~now:(400. +. float_of_int (round * 10)) ~peer:(round * 7 + key_index)
                ~key_index)
    done
  done;
  ignore (Pdht.query pdht ~now:450. ~peer:11 ~key_index:900);
  Printf.printf "indexed keys right after the burst (t=600):   %d\n"
    (Pdht.indexed_key_count pdht ~now:600.);
  Printf.printf "indexed keys after everything idles (t=1200): %d\n"
    (Pdht.indexed_key_count pdht ~now:1_200.);
  Printf.printf
    "\nOnly keys queried within the last keyTtl seconds stay indexed —\n\
     exactly the behaviour the paper's selection algorithm is built for.\n"
