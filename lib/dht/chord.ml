module Bitkey = Pdht_util.Bitkey
module Rng = Pdht_util.Rng

(* Each node is a slot; its state lives in flat rows indexed by slot.  A
   slot that leaves keeps its rows until a join reuses it, so pointers to
   it dangle the way a departed node's address does. *)
type t = {
  rng : Rng.t; (* ids of joining nodes; the finger a stabilization step repairs *)
  ids : Bitkey.t array; (* slot -> id *)
  member : bool array; (* slot -> in the ring *)
  succ : int array; (* slot -> successor *)
  pred : int array; (* slot -> predecessor, -1 when unknown *)
  succ_list : int array; (* slot * list_length + i -> i-th successor, padded with -1 *)
  fingers : int array; (* slot * width + j -> finger aiming at id + 2^j *)
  taken : (Bitkey.t, unit) Hashtbl.t; (* ids of the nodes in the ring *)
  ring : int array; (* create rings: slots sorted by id *)
  mutable count : int;
}

type outcome = { responsible : int option; messages : int; hops : int }

(* Fault-tolerance depth of each node's successor list. *)
let list_length = 4
let width = Bitkey.width
let members t = Array.length t.ids
let node_count t = t.count
let is_member t s = s >= 0 && s < members t && t.member.(s)

let id_of t s =
  if not (is_member t s) then invalid_arg "Chord.id_of: slot is not in the ring";
  t.ids.(s)

(* (id + offset) mod 2^62, the size of the id space. *)
let half_add id offset = Bitkey.of_int ((Bitkey.to_int id + offset) land max_int)
let finger_target t s j = half_add t.ids.(s) (1 lsl j)

(* Circular open interval (a, b); when a = b it wraps the whole ring
   except the endpoint itself (Chord's degenerate single-node case). *)
let in_open_interval ~a ~b x =
  if Bitkey.compare a b < 0 then Bitkey.compare a x < 0 && Bitkey.compare x b < 0
  else if Bitkey.compare a b > 0 then Bitkey.compare x a > 0 || Bitkey.compare x b < 0
  else not (Bitkey.equal x a)

(* (a, b] circular; when a = b the interval wraps the whole ring (the
   single-node / self-successor case). *)
let in_half_open ~a ~b x = Bitkey.equal a b || in_open_interval ~a ~b x || Bitkey.equal x b

let alloc rng n ~ring =
  {
    rng;
    ids = Array.make n (Bitkey.of_int 0);
    member = Array.make n false;
    succ = Array.make n (-1);
    pred = Array.make n (-1);
    succ_list = Array.make (n * list_length) (-1);
    fingers = Array.make (n * width) 0;
    taken = Hashtbl.create n;
    ring;
    count = 0;
  }

let rec fresh_id t =
  let id = Bitkey.random t.rng in
  if Hashtbl.mem t.taken id then fresh_id t else id

(* A node with [id] enters [slot] pointing at [successor], with no known
   predecessor, an empty successor list and every finger at the
   successor. *)
let place t slot id successor =
  t.ids.(slot) <- id;
  t.member.(slot) <- true;
  Hashtbl.replace t.taken id ();
  t.count <- t.count + 1;
  t.succ.(slot) <- successor;
  t.pred.(slot) <- -1;
  Array.fill t.succ_list (slot * list_length) list_length (-1);
  Array.fill t.fingers (slot * width) width successor

let remove t s =
  t.member.(s) <- false;
  Hashtbl.remove t.taken t.ids.(s);
  t.count <- t.count - 1

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

(* The first slot [online] accepts among [s] and the [n - 1] successors
   after it, charging one to [tries] per slot examined; -1 if none. *)
let rec first_online t ~online ~tries s n =
  if n = 0 then -1
  else begin
    incr tries;
    if online s then s else first_online t ~online ~tries t.succ.(s) (n - 1)
  end

(* The first entry of [s]'s successor list that is in the ring and is
   not [s] itself, one message per entry tried; -1 if none. *)
let first_listed t s messages =
  let rec go i =
    let e = if i = list_length then -1 else t.succ_list.((s * list_length) + i) in
    if e < 0 then -1
    else begin
      incr messages;
      if is_member t e && e <> s then e else go (i + 1)
    end
  in
  go 0

let create rng ~members:n =
  if n < 1 then invalid_arg "Chord.create: need >= 1 member";
  let t = alloc rng n ~ring:(Array.init n Fun.id) in
  for s = 0 to n - 1 do
    place t s (fresh_id t) s
  done;
  Array.sort (fun a b -> Bitkey.compare t.ids.(a) t.ids.(b)) t.ring;
  Array.iteri
    (fun p s ->
      t.succ.(s) <- t.ring.((p + 1) mod n);
      t.pred.(s) <- t.ring.((p + n - 1) mod n);
      for i = 0 to list_length - 1 do
        t.succ_list.((s * list_length) + i) <- t.ring.((p + 1 + i) mod n)
      done;
      for j = 0 to width - 1 do
        t.fingers.((s * width) + j) <- successor_member t (finger_target t s j)
      done)
    t.ring;
  t

let empty rng ~capacity =
  if capacity < 1 then invalid_arg "Chord.empty: capacity must be >= 1";
  alloc rng capacity ~ring:[||]

let responsible t ~online key =
  let s = first_online t ~online ~tries:(ref 0) (successor_member t key) (members t) in
  if s < 0 then None else Some s

let successors t key ~k =
  let n = Array.length t.ring in
  let k = min k n in
  if k < 0 then invalid_arg "Chord.successors: negative k";
  let start = successor_pos t key in
  Array.init k (fun i -> t.ring.((start + i) mod n))

let lookup ?span ?deliver t ~online ~source ~key =
  if source < 0 || source >= members t then invalid_arg "Chord.lookup: bad source";
  match if online source then responsible t ~online key else None with
  | None -> { responsible = None; messages = 0; hops = 0 }
  | Some target ->
      let messages = ref 0 and hops = ref 0 and current = ref source and failed = ref false in
      (* Forwarding the lookup to the next node is one RPC under the
         network model; an exhausted retry budget aborts the routing
         (the caller degrades to its miss path). *)
      let forward src dst = match deliver with None -> true | Some d -> d ~span ~src ~dst in
      (* Each iteration strictly advances clockwise toward the key, so
         the loop terminates after at most [members] hops. *)
      while !current <> target && not !failed do
        let c = !current in
        (* Closest preceding online finger within (id c, key); every
           finger in the interval costs a probe. *)
        let next = ref (-1) and j = ref (width - 1) in
        while !next < 0 && !j >= 0 do
          let f = t.fingers.((c * width) + !j) in
          if f <> c && in_open_interval ~a:t.ids.(c) ~b:key t.ids.(f) then begin
            incr messages;
            if online f then next := f
          end;
          decr j
        done;
        (* No useful finger: walk the ring successor by successor,
           paying for timeouts on offline members.  [c] is online, so
           the walk ends by [members] steps. *)
        if !next < 0 then
          next := first_online t ~online ~tries:messages t.succ.(c) (members t);
        if forward c !next then begin
          incr hops;
          current := !next
        end
        else failed := true
      done;
      { responsible = (if !failed then None else Some target); messages = !messages; hops = !hops }

let finger_targets t m =
  let row = m * width in
  let rec fresh f j i = i = j || (t.fingers.(row + i) <> f && fresh f j (i + 1)) in
  List.init width (fun j -> t.fingers.(row + j))
  |> List.filteri (fun j f -> fresh f j 0)
  |> Array.of_list

(* Point finger [j] of [peer] at the first online member at or after its
   ideal target; false (and no change) if every member is offline. *)
let refinger t ~online peer j =
  let ideal = successor_member t (finger_target t peer j) in
  let f = first_online t ~online ~tries:(ref 0) ideal (members t) in
  if f >= 0 then t.fingers.((peer * width) + j) <- f;
  f >= 0

let probe_and_repair t rng ~online ~peer ~probes =
  if probes < 0 then invalid_arg "Chord.probe_and_repair: negative probes";
  for _ = 1 to probes do
    let j = Rng.int rng width in
    if not (online t.fingers.((peer * width) + j)) then ignore (refinger t ~online peer j)
  done;
  probes

(* Crash-stop state loss: point every finger of [peer] at itself.
   [lookup] skips self-fingers, so until the member rebuilds it can only
   walk the ring successor by successor — the behaviour of a node that
   lost its finger table.  Other members' fingers *to* the crashed node
   are handled by the existing [probe_and_repair] (it is offline while
   crashed). *)
let forget_routes t ~peer = Array.fill t.fingers (peer * width) width peer

(* Rejoin: recompute the finger table the way a Chord join does — one
   lookup per finger level, landing on the first *online* member at or
   after the ideal target.  Returns the message cost (one per level). *)
let rebuild_routes t ~online ~peer =
  for j = 0 to width - 1 do
    if not (refinger t ~online peer j) then
      t.fingers.((peer * width) + j) <- successor_member t (finger_target t peer j)
  done;
  width

let bootstrap t =
  if t.count > 0 then invalid_arg "Chord.bootstrap: ring is not empty";
  (* With the ring empty every slot is free. *)
  place t 0 (fresh_id t) 0;
  t.pred.(0) <- 0;
  t.succ_list.(0) <- 0;
  0

(* Greedy routing over current pointers.  Probing a dead pointer costs a
   message (the timeout) and the route tries the next option; it fails
   only when every pointer out of the current node is dead. *)
let route t ~source ~key =
  if not (is_member t source) then invalid_arg "Chord.route: source not a member";
  let messages = ref 0 and hops = ref 0 and current = ref source in
  let result = ref (-1) and give_up = ref false in
  let budget = 4 * members t in
  while !result < 0 && (not !give_up) && !hops <= budget do
    let c = !current in
    let s = t.succ.(c) in
    let succ_alive = is_member t s in
    if succ_alive && in_half_open ~a:t.ids.(c) ~b:t.ids.(s) key then begin
      incr messages;
      result := s
    end
    else begin
      (* Closest preceding alive finger. *)
      let next = ref (-1) and j = ref (width - 1) in
      while !next < 0 && !j >= 0 do
        let f = t.fingers.((c * width) + !j) in
        if f <> c && not (is_member t f) then incr messages (* timeout *)
        else if f <> c && in_open_interval ~a:t.ids.(c) ~b:key t.ids.(f) then begin
          incr messages;
          next := f
        end;
        decr j
      done;
      (* Fall back on the successor chain. *)
      if !next < 0 && succ_alive then begin
        incr messages;
        next := s
      end
      else if !next < 0 then next := first_listed t c messages;
      if !next < 0 then give_up := true
      else begin
        incr hops;
        current := !next
      end
    end
  done;
  { responsible = (if !result < 0 then None else Some !result); messages = !messages; hops = !hops }

let join t ~via =
  if not (is_member t via) then Error "via is not a member"
  else
    match List.find_opt (fun s -> not t.member.(s)) (List.init (members t) Fun.id) with
    | None -> Error "ring is at capacity"
    | Some slot -> (
        let id = fresh_id t in
        let o = route t ~source:via ~key:id in
        match o.responsible with
        | None -> Error "join lookup failed; stabilize and retry"
        | Some successor ->
            place t slot id successor;
            Ok (slot, o.messages + 1))

let leave t ~node =
  if not (is_member t node) then 0
  else begin
    let messages = ref 0 and p = t.pred.(node) and s = t.succ.(node) in
    if is_member t p then begin
      incr messages;
      t.succ.(p) <- s
    end;
    if is_member t s then begin
      incr messages;
      t.pred.(s) <- p
    end;
    remove t node;
    !messages
  end

let crash t ~node = if is_member t node then remove t node

(* The member with the smallest id at or after [key], else the one with
   the smallest id. *)
let ideal_responsible t key =
  let at_or_after = ref (-1) and lowest = ref (-1) in
  let below best id = best < 0 || Bitkey.compare id t.ids.(best) < 0 in
  for s = 0 to members t - 1 do
    if t.member.(s) then begin
      let id = t.ids.(s) in
      if Bitkey.compare id key >= 0 && below !at_or_after id then at_or_after := s;
      if below !lowest id then lowest := s
    end
  done;
  if !at_or_after >= 0 then Some !at_or_after else if !lowest >= 0 then Some !lowest else None

let stabilize_node t slot =
  if not (is_member t slot) then 0
  else begin
    let messages = ref 0 and id = t.ids.(slot) in
    (* 1. Replace a dead successor from the successor list (or, as a
       last resort, with the ideal successor — modelling the expensive
       rejoin-by-lookup a real node would perform). *)
    (if not (is_member t t.succ.(slot)) then
       let s = first_listed t slot messages in
       if s >= 0 then t.succ.(slot) <- s
       else
         match ideal_responsible t (half_add id 1) with
         | Some s ->
             messages := !messages + 3;
             t.succ.(slot) <- s
         | None -> t.succ.(slot) <- slot);
    let s = t.succ.(slot) in
    if is_member t s then begin
      (* 2. Rectify: adopt our successor's predecessor if it sits
         between us.  With a self-successor (bootstrap state) the
         interval wraps the whole ring, so any notifier is adopted —
         this is how the first node learns a second one exists. *)
      incr messages;
      let p = t.pred.(s) in
      if is_member t p && p <> slot && in_open_interval ~a:id ~b:t.ids.(s) t.ids.(p) then
        t.succ.(slot) <- p;
      (* 3. Notify the (possibly new) successor. *)
      let s = t.succ.(slot) in
      if s <> slot then begin
        incr messages;
        let p = t.pred.(s) in
        if not (is_member t p && p <> s && not (in_open_interval ~a:t.ids.(p) ~b:t.ids.(s) id))
        then t.pred.(s) <- slot
      end;
      (* 4. Refresh the successor list: the successor, then its list.
         Copying downwards stays right when the successor is [slot]. *)
      incr messages;
      let row = slot * list_length and from = s * list_length in
      for i = list_length - 1 downto 1 do
        t.succ_list.(row + i) <- t.succ_list.(from + i - 1)
      done;
      t.succ_list.(row) <- s
    end;
    (* 5. Repair one random finger by routing to its target. *)
    let j = Rng.int t.rng width in
    (if not (is_member t t.fingers.((slot * width) + j)) then
       match ideal_responsible t (finger_target t slot j) with
       | Some f ->
           messages := !messages + 2;
           t.fingers.((slot * width) + j) <- f
       | None -> ());
    !messages
  end

let stabilize t rng =
  let order = Array.init (members t) Fun.id in
  Pdht_util.Sampling.shuffle rng order;
  Array.fold_left (fun acc slot -> acc + stabilize_node t slot) 0 order

(* From any member the successor pointers must come back to it after
   visiting every member once, and the ids must descend exactly once on
   the way (where the cycle wraps past the top of the id space): a cycle
   through every member that winds twice round the ids routes keys to
   the wrong owner. *)
let ring_consistent t =
  t.count = 0
  ||
  let start = ref 0 in
  while not t.member.(!start) do
    incr start
  done;
  let rec walk s steps descents =
    let n = t.succ.(s) in
    is_member t n
    &&
    let descents = if Bitkey.compare t.ids.(n) t.ids.(s) <= 0 then descents + 1 else descents in
    if n = !start then steps = t.count && descents = 1
    else steps < t.count && walk n (steps + 1) descents
  in
  walk !start 1 0
