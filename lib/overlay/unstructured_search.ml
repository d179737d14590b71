type strategy = { walkers : int; max_steps : int; check_every : int }

type t = {
  topology : Topology.t;
  replication : Replication.t;
  strategy : strategy;
  (* One scratch per search front end: searches through [t] are
     sequential (one simulated system per domain), so the visited set
     and frontier buffers are reused across every query instead of
     reallocated per broadcast. *)
  scratch : Scratch.t;
}

let create ~topology ~replication ~strategy =
  if Topology.peer_count topology <> Replication.peers replication then
    invalid_arg "Unstructured_search.create: topology and replication disagree on peer count";
  { topology; replication; strategy; scratch = Scratch.create () }

type outcome = { found : bool; messages : int; provider : int option; rounds : int }

let search ?span ?deliver t rng ~online ~source ~item =
  let holders = Replication.replicas t.replication ~item in
  let { walkers; max_steps; check_every } = t.strategy in
  let r =
    Random_walk.search ~scratch:t.scratch ?span ?deliver t.topology rng ~online ~holders ~source
      ~walkers ~max_steps ~check_every
  in
  { found = r.Random_walk.found_at <> None; messages = r.Random_walk.messages;
    provider = r.Random_walk.found_at; rounds = r.Random_walk.rounds }
