(* Verbatim copies of [Pdht_dht.Chord] and [Pdht_dht.Chord_dynamic] as
   they were while the fixed-member ring and the dynamic-membership ring
   were two modules: per-member boxed finger rows, a [pos] inverse of the
   sorted ring and ideal target ids kept per finger, beside [node option]
   slots holding [int list] successor lists.  test_dht's "chord matches
   the two-module reference" drives them beside the one-ring module with
   the same seeds and operations and requires equal outcomes, finger
   targets, join results, stabilization costs and next RNG draw.  Do not
   edit them to follow the library; the one exception is
   [Dynamic.ring_consistent], which also requires the ids to descend
   exactly once along the cycle, the library's rule since a cycle
   winding twice round the ids was found to pass. *)

module Chord = struct
  module Bitkey = Pdht_util.Bitkey

  type t = {
    ids : Bitkey.t array; (* member -> id *)
    ring : int array; (* position -> member, sorted by id *)
    pos : int array; (* member -> position *)
    fingers : int array array; (* member -> finger level -> member *)
    finger_ids : Bitkey.t array array; (* member -> finger level -> ideal target id *)
  }

  let members t = Array.length t.ids
  let id_of t m = t.ids.(m)

  (* Position of the first ring id at or clockwise after [key]. *)
  let successor_pos t key =
    let n = Array.length t.ring in
    let lo = ref 0 and hi = ref n in
    (* Invariant: ids of ring positions < !lo are < key; >= !hi are >= key. *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Bitkey.compare t.ids.(t.ring.(mid)) key < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo

  let successor_member t key = t.ring.(successor_pos t key)

  let first_online_from t ~online start_pos =
    let n = Array.length t.ring in
    let rec walk i =
      if i = n then None
      else
        let m = t.ring.((start_pos + i) mod n) in
        if online m then Some m else walk (i + 1)
    in
    walk 0

  let responsible t ~online key = first_online_from t ~online (successor_pos t key)

  let successors t key ~k =
    let n = Array.length t.ring in
    let k = min k n in
    if k < 0 then invalid_arg "Chord.successors: negative k";
    let start = successor_pos t key in
    Array.init k (fun i -> t.ring.((start + i) mod n))

  let half_add id offset =
    (* (id + offset) mod 2^63, staying non-negative. *)
    Bitkey.of_int ((Bitkey.to_int id + offset) land max_int)

  let create rng ~members:n =
    if n < 1 then invalid_arg "Chord.create: need >= 1 member";
    let seen = Hashtbl.create n in
    let ids =
      Array.init n (fun _ ->
          let rec fresh () =
            let id = Bitkey.random rng in
            if Hashtbl.mem seen id then fresh ()
            else begin
              Hashtbl.add seen id ();
              id
            end
          in
          fresh ())
    in
    let ring = Array.init n Fun.id in
    Array.sort (fun a b -> Bitkey.compare ids.(a) ids.(b)) ring;
    let pos = Array.make n 0 in
    Array.iteri (fun p m -> pos.(m) <- p) ring;
    let t = { ids; ring; pos; fingers = [||]; finger_ids = [||] } in
    let finger_ids =
      Array.init n (fun m -> Array.init Bitkey.width (fun j -> half_add ids.(m) (1 lsl j)))
    in
    let fingers =
      Array.init n (fun m -> Array.map (fun target -> successor_member t target) finger_ids.(m))
    in
    { t with fingers; finger_ids }

  let in_open_interval ~a ~b x =
    (* Circular open interval (a, b); empty when a = b. *)
    if Bitkey.compare a b < 0 then Bitkey.compare a x < 0 && Bitkey.compare x b < 0
    else if Bitkey.compare a b > 0 then Bitkey.compare x a > 0 || Bitkey.compare x b < 0
    else false

  type outcome = { responsible : int option; messages : int; hops : int }

  let lookup ?span ?deliver t ~online ~source ~key =
    if source < 0 || source >= members t then invalid_arg "Chord.lookup: bad source";
    if not (online source) then { responsible = None; messages = 0; hops = 0 }
    else
      match responsible t ~online key with
      | None -> { responsible = None; messages = 0; hops = 0 }
      | Some target ->
          let messages = ref 0 in
          let hops = ref 0 in
          let current = ref source in
          let failed = ref false in
          let n = members t in
          (* Forwarding the lookup to the next node is one RPC under the
             network model; an exhausted retry budget aborts the routing
             (the caller degrades to its miss path). *)
          let forward src dst =
            match deliver with None -> true | Some d -> d ~span ~src ~dst
          in
          (* Each iteration strictly advances clockwise toward the key, so
             the loop terminates after at most [n] hops. *)
          while !current <> target && not !failed do
            let c = !current in
            let id_c = t.ids.(c) in
            (* Closest preceding online finger within (id_c, key). *)
            let chosen = ref None in
            let j = ref (Bitkey.width - 1) in
            while !chosen = None && !j >= 0 do
              let f = t.fingers.(c).(!j) in
              if f <> c && in_open_interval ~a:id_c ~b:key t.ids.(f) then begin
                incr messages; (* probe / forward attempt *)
                if online f then chosen := Some f
              end;
              decr j
            done;
            (match !chosen with
            | Some f ->
                if forward c f then begin
                  incr hops;
                  current := f
                end
                else failed := true
            | None ->
                (* No useful finger: walk the ring successor by successor,
                   paying for timeouts on offline members. *)
                let rec walk i =
                  if i > n then None
                  else
                    let m = t.ring.((t.pos.(c) + i) mod n) in
                    incr messages;
                    if online m then Some m else walk (i + 1)
                in
                (match walk 1 with
                | Some m ->
                    if forward c m then begin
                      incr hops;
                      current := m
                    end
                    else failed := true
                | None -> current := target (* unreachable: target is online *)))
          done;
          if !failed then { responsible = None; messages = !messages; hops = !hops }
          else { responsible = Some target; messages = !messages; hops = !hops }

  let finger_targets t m =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    Array.iter
      (fun f ->
        if not (Hashtbl.mem seen f) then begin
          Hashtbl.add seen f ();
          acc := f :: !acc
        end)
      t.fingers.(m);
    Array.of_list (List.rev !acc)

  let finger_count t m = Array.length (finger_targets t m)

  let probe_and_repair t rng ~online ~peer ~probes =
    if probes < 0 then invalid_arg "Chord.probe_and_repair: negative probes";
    let levels = Array.length t.fingers.(peer) in
    for _ = 1 to probes do
      let j = Pdht_util.Rng.int rng levels in
      let target = t.fingers.(peer).(j) in
      if not (online target) then begin
        let ideal = t.finger_ids.(peer).(j) in
        match first_online_from t ~online (successor_pos t ideal) with
        | Some fresh -> t.fingers.(peer).(j) <- fresh
        | None -> ()
      end
    done;
    probes

  (* Crash-stop state loss: point every finger of [peer] at itself.
     [lookup] skips self-fingers, so until the member rebuilds it can only
     walk the ring successor by successor — the behaviour of a node that
     lost its finger table.  Other members' fingers *to* the crashed node
     are handled by the existing [probe_and_repair] (it is offline while
     crashed). *)
  let forget_routes t ~peer =
    let fingers = t.fingers.(peer) in
    for j = 0 to Array.length fingers - 1 do
      fingers.(j) <- peer
    done

  (* Rejoin: recompute the finger table the way a Chord join does — one
     lookup per finger level, landing on the first *online* member at or
     after the ideal target.  Returns the message cost (one per level). *)
  let rebuild_routes t ~online ~peer =
    let fingers = t.fingers.(peer) in
    let levels = Array.length fingers in
    for j = 0 to levels - 1 do
      let ideal = t.finger_ids.(peer).(j) in
      match first_online_from t ~online (successor_pos t ideal) with
      | Some fresh -> fingers.(j) <- fresh
      | None -> fingers.(j) <- successor_member t ideal
    done;
    levels
end

module Dynamic = struct
  module Bitkey = Pdht_util.Bitkey
  module Rng = Pdht_util.Rng

  type node = {
    id : Bitkey.t;
    mutable successor : int;
    mutable predecessor : int option;
    mutable successor_list : int list;
    mutable fingers : int array; (* finger j aims at id + 2^j *)
  }

  type t = {
    slots : node option array;
    rng : Rng.t;
    mutable count : int;
  }

  (* Fault-tolerance depth of each node's successor list. *)
  let successor_list_length = 4

  let create rng ~capacity () =
    if capacity < 1 then invalid_arg "Chord_dynamic.create: capacity must be >= 1";
    { slots = Array.make capacity None; rng; count = 0 }

  let node_count t = t.count
  let is_member t slot = slot >= 0 && slot < Array.length t.slots && t.slots.(slot) <> None

  let get t slot =
    match t.slots.(slot) with
    | Some n -> n
    | None -> invalid_arg "Chord_dynamic: slot is not a member"

  let id_of t slot = (get t slot).id

  let fresh_slot t =
    let n = Array.length t.slots in
    let rec scan i = if i = n then None else if t.slots.(i) = None then Some i else scan (i + 1) in
    scan 0

  let half_add id offset = Bitkey.of_int ((Bitkey.to_int id + offset) land max_int)

  (* Circular open interval (a, b); when a = b it wraps the whole ring
     except the endpoint itself (Chord's degenerate single-node case). *)
  let in_open_interval ~a ~b x =
    if Bitkey.compare a b < 0 then Bitkey.compare a x < 0 && Bitkey.compare x b < 0
    else if Bitkey.compare a b > 0 then Bitkey.compare x a > 0 || Bitkey.compare x b < 0
    else not (Bitkey.equal x a)

  (* (a, b] circular; when a = b the interval wraps the whole ring (the
     single-node / self-successor case). *)
  let in_half_open ~a ~b x =
    Bitkey.equal a b || in_open_interval ~a ~b x || Bitkey.equal x b

  let make_node t id slot successor =
    t.slots.(slot) <-
      Some
        {
          id;
          successor;
          predecessor = None;
          successor_list = [];
          fingers = Array.make Bitkey.width successor;
        };
    t.count <- t.count + 1

  let random_fresh_id t =
    let rec draw () =
      let id = Bitkey.random t.rng in
      let clash = ref false in
      Array.iter
        (function Some n when Bitkey.equal n.id id -> clash := true | Some _ | None -> ())
        t.slots;
      if !clash then draw () else id
    in
    draw ()

  let bootstrap t =
    if t.count > 0 then invalid_arg "Chord_dynamic.bootstrap: ring is not empty";
    match fresh_slot t with
    | None -> invalid_arg "Chord_dynamic.bootstrap: zero capacity"
    | Some slot ->
        let id = random_fresh_id t in
        make_node t id slot slot;
        let n = get t slot in
        n.predecessor <- Some slot;
        n.successor_list <- [ slot ];
        slot

  type outcome = { responsible : int option; messages : int; hops : int }

  (* Greedy routing over current pointers.  Probing a dead pointer costs a
     message (the timeout) and the route tries the next option; it fails
     only when every pointer out of the current node is dead. *)
  let lookup t ~source ~key =
    if not (is_member t source) then invalid_arg "Chord_dynamic.lookup: source not a member";
    let messages = ref 0 in
    let hops = ref 0 in
    let current = ref source in
    let result = ref None in
    let give_up = ref false in
    let budget = 4 * Array.length t.slots in
    while !result = None && (not !give_up) && !hops <= budget do
      let n = get t !current in
      let succ_alive = is_member t n.successor in
      if succ_alive && in_half_open ~a:n.id ~b:(id_of t n.successor) key then begin
        incr messages;
        result := Some n.successor
      end
      else begin
        (* Closest preceding alive finger. *)
        let chosen = ref None in
        let j = ref (Bitkey.width - 1) in
        while !chosen = None && !j >= 0 do
          let f = n.fingers.(!j) in
          if f <> !current && is_member t f && in_open_interval ~a:n.id ~b:key (id_of t f)
          then begin
            incr messages;
            chosen := Some f
          end
          else if f <> !current && not (is_member t f) then incr messages (* timeout *);
          decr j
        done;
        match !chosen with
        | Some f ->
            incr hops;
            current := f
        | None ->
            (* Fall back on the successor chain. *)
            let rec try_successors = function
              | [] -> None
              | s :: rest ->
                  incr messages;
                  if is_member t s && s <> !current then Some s else try_successors rest
            in
            let next =
              if succ_alive then begin
                incr messages;
                Some n.successor
              end
              else try_successors n.successor_list
            in
            (match next with
            | Some s ->
                incr hops;
                current := s
            | None -> give_up := true)
      end
    done;
    if !hops > budget then give_up := true;
    match !result with
    | Some r when not !give_up -> { responsible = Some r; messages = !messages; hops = !hops }
    | Some _ | None -> { responsible = None; messages = !messages; hops = !hops }

  let join t ~via =
    if not (is_member t via) then Error "via is not a member"
    else
      match fresh_slot t with
      | None -> Error "ring is at capacity"
      | Some slot -> (
          let id = random_fresh_id t in
          let o = lookup t ~source:via ~key:id in
          match o.responsible with
          | None -> Error "join lookup failed; stabilize and retry"
          | Some successor ->
              make_node t id slot successor;
              Ok (slot, o.messages + 1))

  let leave t ~node =
    if not (is_member t node) then 0
    else begin
      let n = get t node in
      let messages = ref 0 in
      (match n.predecessor with
      | Some p when is_member t p ->
          incr messages;
          (get t p).successor <- n.successor
      | Some _ | None -> ());
      if is_member t n.successor then begin
        incr messages;
        (get t n.successor).predecessor <- n.predecessor
      end;
      t.slots.(node) <- None;
      t.count <- t.count - 1;
      !messages
    end

  let crash t ~node =
    if is_member t node then begin
      t.slots.(node) <- None;
      t.count <- t.count - 1
    end

  let ideal_responsible t key =
    let best = ref None in
    Array.iteri
      (fun slot entry ->
        match entry with
        | None -> ()
        | Some n -> (
            let better current =
              (* smallest id >= key; fall back to the global minimum id *)
              match current with
              | None -> true
              | Some c ->
                  let cid = id_of t c in
                  if Bitkey.compare cid key >= 0 then
                    Bitkey.compare n.id key >= 0 && Bitkey.compare n.id cid < 0
                  else
                    Bitkey.compare n.id key >= 0 || Bitkey.compare n.id cid < 0
            in
            if better !best then best := Some slot))
      t.slots;
    !best

  let stabilize_node t slot =
    if not (is_member t slot) then 0
    else begin
      let n = get t slot in
      let messages = ref 0 in
      (* 1. Replace a dead successor from the successor list (or, as a
         last resort, with the ideal successor — modelling the expensive
         rejoin-by-lookup a real node would perform). *)
      if not (is_member t n.successor) then begin
        let rec first_alive = function
          | [] -> None
          | s :: rest ->
              incr messages;
              if is_member t s && s <> slot then Some s else first_alive rest
        in
        match first_alive n.successor_list with
        | Some s -> n.successor <- s
        | None -> (
            match ideal_responsible t (half_add n.id 1) with
            | Some s ->
                messages := !messages + 3;
                n.successor <- s
            | None -> n.successor <- slot)
      end;
      if is_member t n.successor then begin
        let succ = get t n.successor in
        (* 2. Rectify: adopt our successor's predecessor if it sits
           between us.  With a self-successor (bootstrap state) the
           interval wraps the whole ring, so any notifier is adopted —
           this is how the first node learns a second one exists. *)
        incr messages;
        (match succ.predecessor with
        | Some p
          when is_member t p && p <> slot
               && in_open_interval ~a:n.id ~b:succ.id (id_of t p) ->
            n.successor <- p
        | Some _ | None -> ());
        (* 3. Notify the (possibly new) successor. *)
        if n.successor <> slot then begin
          let succ = get t n.successor in
          incr messages;
          match succ.predecessor with
          | Some p
            when is_member t p && p <> n.successor
                 && not (in_open_interval ~a:(id_of t p) ~b:succ.id n.id) ->
              ()
          | Some _ | None -> succ.predecessor <- Some slot
        end;
        (* 4. Refresh the successor list from the successor. *)
        incr messages;
        let succ_list = (get t n.successor).successor_list in
        n.successor_list <-
          (n.successor :: succ_list)
          |> List.filteri (fun i _ -> i < successor_list_length)
      end;
      (* 5. Repair one random finger by routing to its target. *)
      let j = Rng.int t.rng Bitkey.width in
      let target = half_add n.id (1 lsl j) in
      (if not (is_member t n.fingers.(j)) then
         match ideal_responsible t target with
         | Some f ->
             messages := !messages + 2;
             n.fingers.(j) <- f
         | None -> ());
      !messages
    end

  let stabilize t rng =
    let order = Array.init (Array.length t.slots) Fun.id in
    Pdht_util.Sampling.shuffle rng order;
    Array.fold_left (fun acc slot -> acc + stabilize_node t slot) 0 order

  let ring_consistent t =
    if t.count = 0 then true
    else begin
      (* Find any member, walk successors, require a single cycle visiting
         every member with ids in circular order. *)
      let start = ref None in
      Array.iteri (fun i e -> if e <> None && !start = None then start := Some i) t.slots;
      match !start with
      | None -> true
      | Some s ->
          let visited = Hashtbl.create t.count in
          (* Not verbatim: the library's rule also requires the ids to
             descend exactly once along the cycle. *)
          let one_descent () =
            Hashtbl.fold
              (fun m () acc ->
                let n = get t m in
                if Bitkey.compare (id_of t n.successor) n.id <= 0 then acc + 1 else acc)
              visited 0
            = 1
          in
          let rec walk current steps =
            if steps > t.count then false
            else begin
              Hashtbl.replace visited current ();
              let n = get t current in
              if not (is_member t n.successor) then false
              else if n.successor = s then Hashtbl.length visited = t.count && one_descent ()
              else if Hashtbl.mem visited n.successor then false
              else walk n.successor (steps + 1)
            end
          in
          walk s 1
    end
end
