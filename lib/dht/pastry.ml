module Bitkey = Pdht_util.Bitkey
module Rng = Pdht_util.Rng

type t = {
  ids : Bitkey.t array; (* member -> id *)
  sorted : int array; (* member indices sorted by id *)
  pos_in_sorted : int array;
  leaf_set_size : int;
  routing : int option array array array; (* member -> row -> digit value -> entry *)
  groups : (int * int, int array) Hashtbl.t; (* (depth, prefix) -> members *)
}

(* b = 2: base-4 digits. *)
let digit_bits = 2
let digit_count = Bitkey.width / digit_bits

let members t = Array.length t.ids
(* Circular distance on the 62-bit id space (2^62 = max_int + 1). *)
let circular_distance a b =
  let d = abs (Bitkey.to_int a - Bitkey.to_int b) in
  if d = 0 then 0 else min d (max_int - d + 1)

let digit id i =
  let shift = Bitkey.width - ((i + 1) * digit_bits) in
  (Bitkey.to_int id lsr shift) land ((1 lsl digit_bits) - 1)

let shared_digit_prefix a b =
  let rec go i = if i < digit_count && digit a i = digit b i then go (i + 1) else i in
  go 0

let prefix_key id ~depth = (depth, Bitkey.to_int (Bitkey.prefix id ~len:(depth * digit_bits)))

let create rng ~members:n ?(leaf_set_size = 8) () =
  if n < 1 then invalid_arg "Pastry.create: need >= 1 member";
  if leaf_set_size < 1 then invalid_arg "Pastry.create: leaf_set_size must be >= 1";
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
  let sorted = Array.init n Fun.id in
  Array.sort (fun a b -> Bitkey.compare ids.(a) ids.(b)) sorted;
  let pos_in_sorted = Array.make n 0 in
  Array.iteri (fun p m -> pos_in_sorted.(m) <- p) sorted;
  let groups = Hashtbl.create (4 * n) in
  (* Depth is bounded by the point where prefixes become unique, well
     under log_{2^b} n + a margin; building every row past that depth
     would only create empty groups. *)
  let max_depth = min digit_count ((62 / digit_bits) + 1) in
  let useful_depth =
    let rec grow d =
      if d >= max_depth then d
      else begin
        (* Stop one level after every group is a singleton. *)
        let distinct = Hashtbl.create n in
        Array.iter (fun id -> Hashtbl.replace distinct (Bitkey.to_int (Bitkey.prefix id ~len:(d * digit_bits))) ()) ids;
        if Hashtbl.length distinct = n then d else grow (d + 1)
      end
    in
    grow 1
  in
  for depth = 0 to useful_depth do
    let acc = Hashtbl.create n in
    Array.iteri
      (fun m id ->
        let key = prefix_key id ~depth in
        let existing = try Hashtbl.find acc key with Not_found -> [] in
        Hashtbl.replace acc key (m :: existing))
      ids;
    Hashtbl.iter (fun key ms -> Hashtbl.replace groups key (Array.of_list ms)) acc
  done;
  let digit_values = 1 lsl digit_bits in
  let routing =
    Array.init n (fun m ->
        let id = ids.(m) in
        Array.init (min useful_depth digit_count) (fun row ->
            Array.init digit_values (fun d ->
                if d = digit id row then None
                else begin
                  (* Members sharing [row] digits with us whose next
                     digit is [d]: the (row+1)-digit prefix formed from
                     our prefix plus digit d. *)
                  let base = Bitkey.prefix id ~len:(row * digit_bits) in
                  let shift = Bitkey.width - ((row + 1) * digit_bits) in
                  let target_prefix =
                    Bitkey.of_int (Bitkey.to_int base lor (d lsl shift))
                  in
                  match Hashtbl.find_opt groups (row + 1, Bitkey.to_int target_prefix) with
                  | None | Some [||] -> None
                  | Some pool -> Some pool.(Rng.int rng (Array.length pool))
                end)))
  in
  { ids; sorted; pos_in_sorted; leaf_set_size; routing; groups }

let leaf_set t m =
  let n = members t in
  let half = min t.leaf_set_size ((n - 1) / 2 + 1) in
  let pos = t.pos_in_sorted.(m) in
  let neighbors = ref [] in
  for i = 1 to half do
    neighbors := t.sorted.((pos + i) mod n) :: !neighbors;
    neighbors := t.sorted.(((pos - i) mod n + n) mod n) :: !neighbors
  done;
  let distinct = List.sort_uniq compare (List.filter (fun x -> x <> m) !neighbors) in
  let arr = Array.of_list distinct in
  Array.sort
    (fun a b -> compare (circular_distance t.ids.(a) t.ids.(m)) (circular_distance t.ids.(b) t.ids.(m)))
    arr;
  arr

let numerically_closest t key =
  let n = members t in
  (* Binary search for the id successor, then compare with the
     predecessor circularly. *)
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bitkey.compare t.ids.(t.sorted.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  let succ = t.sorted.(!lo mod n) in
  let pred = t.sorted.((!lo - 1 + n) mod n) in
  if circular_distance t.ids.(succ) key <= circular_distance t.ids.(pred) key then succ
  else pred

let replica_group t key ~k =
  let n = members t in
  let k = min k n in
  if k < 0 then invalid_arg "Pastry.replica_group: negative k";
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b -> compare (circular_distance t.ids.(a) key) (circular_distance t.ids.(b) key))
    order;
  Array.sub order 0 k

let responsible t ~online key =
  let n = members t in
  let best = ref None in
  for m = 0 to n - 1 do
    if online m then
      match !best with
      | None -> best := Some m
      | Some b ->
          if circular_distance t.ids.(m) key < circular_distance t.ids.(b) key then
            best := Some m
  done;
  !best

type outcome = { responsible : int option; messages : int; hops : int }

let lookup ?span ?deliver t ~online ~source ~key =
  if source < 0 || source >= members t then invalid_arg "Pastry.lookup: bad source";
  if not (online source) then { responsible = None; messages = 0; hops = 0 }
  else
    match responsible t ~online key with
    | None -> { responsible = None; messages = 0; hops = 0 }
    | Some target ->
        let messages = ref 0 in
        let hops = ref 0 in
        let current = ref source in
        let stalled = ref false in
        (* One RPC per successful forward under the network model; an
           exhausted retry budget stalls the routing (miss path). *)
        let forward src dst =
          match deliver with None -> true | Some d -> d ~span ~src ~dst
        in
        (* Progress measure: (shared prefix length, numeric closeness)
           lexicographically — preferred hops grow the prefix, fallback
           hops keep it and shrink the distance, so the loop terminates;
           the hop budget is a backstop against pathological churn. *)
        let budget = (8 * digit_count) + members t in
        while !current <> target && not !stalled do
          if !hops > budget then stalled := true
          else begin
          let c = !current in
          let row = shared_digit_prefix t.ids.(c) key in
          (* Preferred: the routing-table entry for the key's next
             digit. *)
          let preferred =
            if row < Array.length t.routing.(c) then
              t.routing.(c).(row).(digit key row)
            else None
          in
          let next =
            match preferred with
            | Some m ->
                incr messages;
                if online m then Some m else None
            | None -> None
          in
          match next with
          | Some m ->
              if forward c m then begin
                incr hops;
                current := m
              end
              else stalled := true
          | None ->
              (* Fallback tiers (the standard Pastry "rare case" rule
                 plus leaf-set delivery):
                 (a) a known member numerically strictly closer that
                     shares at least as long a digit prefix — the
                     lexicographic progress measure never regresses;
                 (b) failing that, the numerically closest leaf-set
                     member if it improves on us — the delivery step
                     that hands the key to its owner even when the owner
                     sits across a digit boundary.
                 Each liveness check costs a message. *)
              let my_distance = circular_distance t.ids.(c) key in
              let leaves = Array.to_list (leaf_set t c) in
              let known =
                leaves
                @ (Array.to_list t.routing.(c)
                  |> List.concat_map Array.to_list
                  |> List.filter_map Fun.id)
              in
              let by_distance =
                List.sort (fun a b ->
                    compare (circular_distance t.ids.(a) key)
                      (circular_distance t.ids.(b) key))
              in
              let prefix_safe =
                List.filter
                  (fun m ->
                    circular_distance t.ids.(m) key < my_distance
                    && shared_digit_prefix t.ids.(m) key >= row)
                  known
                |> List.sort_uniq compare |> by_distance
              in
              let leaf_delivery =
                List.filter
                  (fun m -> circular_distance t.ids.(m) key < my_distance)
                  leaves
                |> by_distance
              in
              let rec try_candidates = function
                | [] -> None
                | m :: rest ->
                    incr messages;
                    if online m then Some m else try_candidates rest
              in
              (match try_candidates prefix_safe with
              | Some m ->
                  if forward c m then begin
                    incr hops;
                    current := m
                  end
                  else stalled := true
              | None -> (
                  match try_candidates leaf_delivery with
                  | Some m ->
                      if forward c m then begin
                        incr hops;
                        current := m
                      end
                      else stalled := true
                  | None -> stalled := true))
          end
        done;
        if !current = target then { responsible = Some target; messages = !messages; hops = !hops }
        else { responsible = None; messages = !messages; hops = !hops }

(* Crash-stop state loss: blank every routing-table entry of [peer].
   The leaf set is derived from the static sorted ring, so routing from
   the member degrades to leaf-set-only hand-offs (slow, often stalls —
   miss path) until {!rebuild_routes}.  [probe_and_repair] never fills a
   [None] slot. *)
let forget_routes t ~peer =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) None) t.routing.(peer)

(* Rejoin: refill the routing table from the prefix groups exactly as
   [create] does — a uniform pick per (row, digit) slot.  One message
   per entry learned (the state exchange of a Pastry join). *)
let rebuild_routes t rng ~peer =
  let id = t.ids.(peer) in
  let digit_values = 1 lsl digit_bits in
  let messages = ref 0 in
  Array.iteri
    (fun row entries ->
      for d = 0 to digit_values - 1 do
        if d = digit id row then entries.(d) <- None
        else begin
          let base = Bitkey.prefix id ~len:(row * digit_bits) in
          let shift = Bitkey.width - ((row + 1) * digit_bits) in
          let target_prefix = Bitkey.of_int (Bitkey.to_int base lor (d lsl shift)) in
          match Hashtbl.find_opt t.groups (row + 1, Bitkey.to_int target_prefix) with
          | None | Some [||] -> entries.(d) <- None
          | Some pool ->
              entries.(d) <- Some pool.(Rng.int rng (Array.length pool));
              incr messages
        end
      done)
    t.routing.(peer);
  !messages

let probe_and_repair t rng ~online ~peer ~probes =
  if probes < 0 then invalid_arg "Pastry.probe_and_repair: negative probes";
  let rows = Array.length t.routing.(peer) in
  if rows = 0 then 0
  else begin
    let digit_values = 1 lsl digit_bits in
    for _ = 1 to probes do
      let row = Rng.int rng rows in
      let d = Rng.int rng digit_values in
      match t.routing.(peer).(row).(d) with
      | None -> ()
      | Some m ->
          if not (online m) then begin
            let base = Bitkey.prefix t.ids.(peer) ~len:(row * digit_bits) in
            let shift = Bitkey.width - ((row + 1) * digit_bits) in
            let target_prefix = Bitkey.of_int (Bitkey.to_int base lor (d lsl shift)) in
            match Hashtbl.find_opt t.groups (row + 1, Bitkey.to_int target_prefix) with
            | None | Some [||] -> ()
            | Some pool ->
                let tries = min 20 (2 * Array.length pool) in
                let rec attempt k =
                  if k = 0 then ()
                  else
                    let cand = pool.(Rng.int rng (Array.length pool)) in
                    if online cand && cand <> peer then
                      t.routing.(peer).(row).(d) <- Some cand
                    else attempt (k - 1)
                in
                attempt tries
          end
    done;
    probes
  end
