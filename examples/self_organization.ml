(* Self-organization: the structured substrates building themselves.

   The paper's platform, P-Grid, is "a self-organizing access structure"
   [Aber01]: the routing trie emerges from random pairwise meetings with
   no coordinator.  Chord [StMo01] likewise grows node by node through
   its join + stabilization protocol.  This example watches both happen
   and then breaks the Chord ring to show stabilization healing it.

   Run with: dune exec examples/self_organization.exe *)

module Pgrid = Pdht_dht.Pgrid
module CD = Pdht_dht.Chord

let () =
  Printf.printf "== P-Grid: a trie from random meetings ==\n\n";
  let rng = Pdht_util.Rng.create ~seed:11 in
  let trie = Pgrid.unspecialized ~members:128 in
  Printf.printf "%-10s %-12s %-16s %-10s %s\n" "meetings" "mean depth" "distinct paths"
    "refs/peer" "lookup success";
  let total = ref 0 in
  List.iter
    (fun meetings ->
      Pgrid.run_exchanges trie rng ~meetings;
      total := !total + meetings;
      let s = Pgrid.stats trie in
      Printf.printf "%-10d %-12.2f %-16d %-10.1f %.3f\n" !total
        s.Pgrid.mean_path_length s.Pgrid.distinct_paths s.Pgrid.mean_refs
        (Pgrid.lookup_success_rate trie rng ~trials:200))
    [ 64; 128; 256; 512; 1024 ];
  Printf.printf
    "\n(log2 128 = 7: the trie reaches its natural depth and every peer ends\n\
     up with a distinct path — nobody coordinated anything)\n\n";

  (* A few concrete peers. *)
  Printf.printf "sample paths: ";
  List.iter (fun p -> Printf.printf "%s " (Pgrid.path_of trie p)) [ 0; 1; 2; 3 ];
  Printf.printf "\n\n== Chord: a ring from joins and stabilization ==\n\n";
  let ring = CD.empty rng ~capacity:100 in
  let first = CD.bootstrap ring in
  let members = ref [ first ] in
  List.iter
    (fun target ->
      while CD.node_count ring < target do
        let alive = List.filter (CD.is_member ring) !members in
        let via = List.nth alive (Pdht_util.Rng.int rng (List.length alive)) in
        (match CD.join ring ~via with
        | Ok (node, _) -> members := node :: !members
        | Error _ -> ());
        ignore (CD.stabilize ring rng)
      done;
      for _ = 1 to 10 do
        ignore (CD.stabilize ring rng)
      done;
      Printf.printf "grown to %3d nodes: ring consistent = %b\n" (CD.node_count ring)
        (CD.ring_consistent ring))
    [ 4; 16; 64 ];

  Printf.printf "\ncrashing 16 nodes at once...\n";
  let alive = List.filter (CD.is_member ring) !members in
  List.iteri (fun i m -> if i mod 4 = 0 then CD.crash ring ~node:m) alive;
  Printf.printf "ring consistent right after the crashes: %b\n" (CD.ring_consistent ring);
  let rounds = ref 0 in
  while (not (CD.ring_consistent ring)) && !rounds < 50 do
    incr rounds;
    ignore (CD.stabilize ring rng)
  done;
  Printf.printf "stabilization healed the ring in %d round(s); %d nodes remain\n" !rounds
    (CD.node_count ring);
  Printf.printf
    "\nBoth structures repaired and grew themselves — the property the paper\n\
     leans on when it assumes 'a traditional DHT' simply keeps working\n\
     underneath the query-adaptive index.\n"
