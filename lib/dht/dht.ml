type backend = Chord_backend | Pgrid_backend | Kademlia_backend | Pastry_backend

type impl =
  | Chord of Chord.t
  | Pgrid of Pgrid.t
  | Kademlia of Kademlia.t
  | Pastry of Pastry.t

type t = { impl : impl }

let create rng ~backend ~members ?(leaf_size = 1) ?(refs_per_level = 3) () =
  match backend with
  | Chord_backend -> { impl = Chord (Chord.create rng ~members) }
  | Pgrid_backend -> { impl = Pgrid (Pgrid.build rng ~members ~leaf_size ~refs_per_level) }
  | Kademlia_backend ->
      { impl = Kademlia (Kademlia.create rng ~members ~bucket_size:(max 4 refs_per_level) ()) }
  | Pastry_backend ->
      { impl = Pastry (Pastry.create rng ~members ~leaf_set_size:(max 4 refs_per_level) ()) }

let backend_label = function
  | Chord_backend -> "chord"
  | Pgrid_backend -> "p-grid"
  | Kademlia_backend -> "kademlia"
  | Pastry_backend -> "pastry"

let members t =
  match t.impl with
  | Chord c -> Chord.members c
  | Pgrid g -> Pgrid.members g
  | Kademlia k -> Kademlia.members k
  | Pastry p -> Pastry.members p

type outcome = { responsible : int option; messages : int; hops : int }

let lookup ?span ?deliver t rng ~online ~source ~key =
  match t.impl with
  | Chord c ->
      let o = Chord.lookup ?span ?deliver c ~online ~source ~key in
      { responsible = o.Chord.responsible; messages = o.Chord.messages; hops = o.Chord.hops }
  | Pgrid g ->
      let o = Pgrid.lookup ?span ?deliver g rng ~online ~source ~key in
      { responsible = o.Pgrid.responsible; messages = o.Pgrid.messages; hops = o.Pgrid.hops }
  | Kademlia k ->
      let o = Kademlia.lookup ?span ?deliver k ~online ~source ~key in
      { responsible = o.Kademlia.responsible; messages = o.Kademlia.messages;
        hops = o.Kademlia.hops }
  | Pastry p ->
      let o = Pastry.lookup ?span ?deliver p ~online ~source ~key in
      { responsible = o.Pastry.responsible; messages = o.Pastry.messages;
        hops = o.Pastry.hops }

let responsible t ~online key =
  match t.impl with
  | Chord c -> Chord.responsible c ~online key
  | Pgrid g -> Pgrid.responsible g ~online key
  | Kademlia k -> Kademlia.responsible k ~online key
  | Pastry p -> Pastry.responsible p ~online key

let replica_group t ~repl key =
  match t.impl with
  | Chord c -> Chord.successors c key ~k:repl
  | Pgrid g -> Pgrid.responsible_peers g key
  | Kademlia k -> Kademlia.closest_members k key ~k:repl
  | Pastry p -> Pastry.replica_group p key ~k:repl

let probe_and_repair t rng ~online ~peer ~probes =
  match t.impl with
  | Chord c -> Chord.probe_and_repair c rng ~online ~peer ~probes
  | Pgrid g -> Pgrid.probe_and_repair g rng ~online ~peer ~probes
  | Kademlia k -> Kademlia.probe_and_repair k rng ~online ~peer ~probes
  | Pastry p -> Pastry.probe_and_repair p rng ~online ~peer ~probes

let forget_routes t ~peer =
  match t.impl with
  | Chord c -> Chord.forget_routes c ~peer
  | Pgrid g -> Pgrid.forget_routes g ~peer
  | Kademlia k -> Kademlia.forget_routes k ~peer
  | Pastry p -> Pastry.forget_routes p ~peer

let rebuild_routes t rng ~online ~peer =
  match t.impl with
  | Chord c -> Chord.rebuild_routes c ~online ~peer
  | Pgrid g -> Pgrid.rebuild_routes g rng ~peer
  | Kademlia k -> Kademlia.rebuild_routes k rng ~peer
  | Pastry p -> Pastry.rebuild_routes p rng ~peer

let enable_live_routing ?probe_retries t =
  match t.impl with
  | Kademlia k -> Kademlia.enable_live_routing ?probe_retries k
  | Chord _ | Pgrid _ | Pastry _ ->
      invalid_arg "Dht.enable_live_routing: only the Kademlia backend has live k-buckets"

let refresh_sweep t rng ~online =
  match t.impl with Kademlia k -> Kademlia.refresh_sweep k rng ~online | _ -> 0
