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
