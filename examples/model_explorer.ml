(* Model explorer: "to index or not to index?" across the design space.

   The paper's analysis (Sections 2-4) answers one question: given a
   query rate, how much of the key space is worth indexing?  This
   example walks the analytical model through three what-if axes beyond
   the Figs. 1-4 sweep:

     - query skew (Zipf alpha): flatter distributions make partial
       indexing less attractive because there is no hot head to cache;
     - replication factor: more content replicas make broadcast search
       cheaper and shrink the index worth keeping;
     - network size at fixed load: bigger networks make broadcast
       brutally expensive and the index more valuable.

   Run with: dune exec examples/model_explorer.exe *)

module Params = Pdht_model.Params
module Index_policy = Pdht_model.Index_policy
module Strategies = Pdht_model.Strategies
module Table = Pdht_util.Table

type row = {
  label : string;
  index_fraction : float;
  p_indexed : float;
  partial : float;
  all : float;
  none : float;
  winner : string;
}

let row_of (label, params) =
  let s = Index_policy.solve params in
  let all = (Strategies.index_all params).Strategies.total in
  let none = (Strategies.no_index params).Strategies.total in
  let partial = (Strategies.partial_ideal params s).Strategies.total in
  let winner =
    (* Tolerance: with a full index, partial and indexAll coincide up to
       rounding of pIndxd. *)
    if partial <= Float.min all none *. 1.0001 then "partial"
    else if all <= none then "indexAll"
    else "noIndex"
  in
  {
    label;
    index_fraction =
      float_of_int s.Index_policy.max_rank /. float_of_int params.Params.keys;
    p_indexed = s.Index_policy.p_indexed;
    partial;
    all;
    none;
    winner;
  }

let print_axis title header values params_of =
  Printf.printf "\n== %s ==\n" title;
  Table.print
    (Table.make
       [ (header, Table.Left, fun r -> r.label);
         ("idx frac", Table.Right, fun r -> Printf.sprintf "%.3f" r.index_fraction);
         ("pIndxd", Table.Right, fun r -> Printf.sprintf "%.3f" r.p_indexed);
         ("partial", Table.Right, fun r -> Printf.sprintf "%.0f" r.partial);
         ("indexAll", Table.Right, fun r -> Printf.sprintf "%.0f" r.all);
         ("noIndex", Table.Right, fun r -> Printf.sprintf "%.0f" r.none);
         ("winner", Table.Left, fun r -> r.winner) ]
       (List.map (fun v -> row_of (params_of v)) values))

let () =
  Printf.printf "analytical model what-ifs around the Table-1 news scenario\n";
  print_axis "query skew (Zipf alpha)" "alpha"
    [ 0.6; 0.8; 1.0; 1.2; 1.4; 1.6 ]
    (fun alpha -> (Printf.sprintf "%.1f" alpha, { Params.default with Params.alpha }));
  print_axis "replication factor" "repl"
    [ 10; 25; 50; 100; 200 ]
    (fun repl -> (string_of_int repl, { Params.default with Params.repl }));
  print_axis "network size (load per peer fixed)" "peers"
    [ 2_000; 10_000; 20_000; 50_000; 100_000 ]
    (fun num_peers ->
      ( string_of_int num_peers,
        { Params.default with Params.num_peers; keys = num_peers * 2 } ));
  Printf.printf
    "\nReading guide: 'idx frac' is maxRank/keys (how much of the key space is\n\
     worth indexing, Eq. 2-4); 'pIndxd' the fraction of queries the partial\n\
     index answers (Eq. 5).  The partial strategy never loses to noIndex and\n\
     loses to indexAll only when almost every key is hot.\n"
