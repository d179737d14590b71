module Bitkey = Pdht_util.Bitkey
module Rng = Pdht_util.Rng
module Sampling = Pdht_util.Sampling

(* Flat rows.  Peer [p]'s path is the first [len p] bits of [bits.(p)]
   (the rest are zero).  Level [l] of [p] is row slot [p * cap + l]: its
   references fill [refs] from [(p * cap + l) * per], newest or first
   drawn first, and [count] holds how many.

   A built trie also keeps one permutation row per depth.  [order.(0)]
   is the identity; [order.(d + 1)] is [order.(d)] with every segment
   that splits at depth [d] shuffled, so the prefix's 0-child holds its
   first [size / 2] positions and the 1-child the rest.  Every prefix's
   peers thus form one segment of its depth's row, in the order the
   split left them, and the segment's bounds follow from the members,
   [leaf_size] and the path bits alone (see [descend]).  A grown trie
   has no rows ([order = [||]]). *)
type t = {
  bits : Bitkey.t array;
  len : Bytes.t; (* peer -> path length *)
  cap : int; (* levels a peer can hold *)
  per : int; (* slots a level *)
  refs : int array;
  count : Bytes.t; (* row slot -> references held *)
  leaf_size : int;
  order : int array array;
  (* Built: each leaf's group by its first position (leaves partition
     the positions), copied out of its row when first asked for and
     shared after: callers such as replica subnetworks keep it. *)
  groups : int array array;
  (* Single-owner scratch (a P-Grid instance belongs to one simulated
     system / domain): [descend]'s segment, and the candidates each
     [lookup] hop copies from the current level and shuffles in place. *)
  mutable lo : int;
  mutable size : int;
  lookup_buf : int array;
}

let members t = Array.length t.bits
let path_length t p = Char.code (Bytes.get t.len p)
let path_of t p = Bitkey.to_bits t.bits.(p) ~len:(path_length t p)
let base t p l = ((p * t.cap) + l) * t.per
let count t p l = Char.code (Bytes.get t.count ((p * t.cap) + l))
let set_count t p l c = Bytes.set t.count ((p * t.cap) + l) (Char.unsafe_chr c)
let need_built t name =
  if Array.length t.order = 0 then invalid_arg ("Pgrid." ^ name ^ ": needs a built trie")

let make ~members:n ~cap ~per ~leaf_size ~order =
  {
    bits = Array.make n (Bitkey.of_int 0);
    len = Bytes.make n '\000';
    cap;
    per;
    refs = Array.make (n * cap * per) 0;
    count = Bytes.make (n * cap) '\000';
    leaf_size;
    order;
    groups = Array.make (if Array.length order = 0 then 0 else n) [||];
    lo = 0;
    size = 0;
    lookup_buf = Array.make per 0;
  }

let[@inline] splits ~leaf_size ~depth ~size = size > leaf_size && depth < Bitkey.width

(* Walk the halving from the root along [bits] for at most [depth]
   levels, stopping early at a leaf; leaves the segment in [t.lo] and
   [t.size] and returns the depth reached. *)
let descend t bits ~depth =
  let d = ref 0 and lo = ref 0 and size = ref (members t) in
  while !d < depth && splits ~leaf_size:t.leaf_size ~depth:!d ~size:!size do
    let half = !size / 2 in
    if Bitkey.bit bits !d then begin
      lo := !lo + half;
      size := !size - half
    end
    else size := half;
    incr d
  done;
  t.lo <- !lo;
  t.size <- !size;
  !d

(* The complementary subtree of [p] at [level] is the depth-[level + 1]
   prefix of its path with the last bit flipped.  Its segment of row
   [level + 1] is left in [t.lo] and [t.size]. *)
let complement t p level = ignore (descend t (Bitkey.flip_bit t.bits.(p) level) ~depth:(level + 1))

(* Sample [per] references (fewer when the subtree is smaller) from the
   complementary subtree at every level of [p]'s path, as construction
   and rejoin both do.  Returns how many it learned.  One walk down
   [p]'s own path: [lo] and [size] are the segment of its depth-[l]
   prefix, which splits (the path goes deeper), and the complement at
   [l] is the half that [p]'s bit [l] does not take — what [complement]
   would find from the root. *)
let sample_refs t rng p =
  let learned = ref 0 and lo = ref 0 and size = ref (members t) in
  for l = 0 to path_length t p - 1 do
    let half = !size / 2 and one = Bitkey.bit t.bits.(p) l in
    let c_lo = if one then !lo else !lo + half in
    let c_size = if one then half else !size - half in
    if one then begin
      lo := !lo + half;
      size := !size - half
    end
    else size := half;
    let k = min t.per c_size in
    let idx = Sampling.sample_without_replacement rng ~k ~n:c_size in
    let row = t.order.(l + 1) and b = base t p l in
    for s = 0 to k - 1 do
      t.refs.(b + s) <- row.(c_lo + idx.(s))
    done;
    set_count t p l k;
    learned := !learned + k
  done;
  !learned

let build rng ~members:n ~leaf_size ~refs_per_level =
  if n < 1 then invalid_arg "Pgrid.build: need >= 1 member";
  if leaf_size < 1 then invalid_arg "Pgrid.build: leaf_size must be >= 1";
  if refs_per_level < 1 || refs_per_level > 255 then
    invalid_arg "Pgrid.build: refs_per_level must be in 1..255";
  (* The deepest leaf lies under the larger half of every split. *)
  let rec depth d size =
    if splits ~leaf_size ~depth:d ~size then depth (d + 1) (size - (size / 2)) else d
  in
  let cap = depth 0 n in
  let order =
    Array.init (cap + 1) (fun d -> if d = 0 then Array.init n Fun.id else Array.make n 0)
  in
  let t = make ~members:n ~cap ~per:refs_per_level ~leaf_size ~order in
  (* Balanced recursive split, depth first with the 0-side first: both
     halves differ in size by at most one, giving near-uniform path
     lengths — the shape a converged P-Grid reaches under uniform load. *)
  let rec split d lo size bits =
    if splits ~leaf_size ~depth:d ~size then begin
      Array.blit order.(d) lo order.(d + 1) lo size;
      Sampling.shuffle_sub rng order.(d + 1) ~pos:lo ~len:size;
      let half = size / 2 in
      split (d + 1) lo half bits;
      split (d + 1) (lo + half) (size - half) (Bitkey.flip_bit bits d)
    end
    else
      for i = lo to lo + size - 1 do
        let p = order.(d).(i) in
        t.bits.(p) <- bits;
        Bytes.set t.len p (Char.chr d)
      done
  in
  split 0 0 n (Bitkey.of_int 0);
  for p = 0 to n - 1 do
    ignore (sample_refs t rng p)
  done;
  t

(* A grown trie specializes to at most 20 bits and keeps at most 4
   references a level. *)
let unspecialized ~members:n =
  if n < 1 then invalid_arg "Pgrid.unspecialized: need >= 1 member";
  make ~members:n ~cap:20 ~per:4 ~leaf_size:0 ~order:[||]

let matches t key p = Bitkey.common_prefix_length key t.bits.(p) >= path_length t p

let match_length t key p = min (Bitkey.common_prefix_length key t.bits.(p)) (path_length t p)

let responsible_peers t key =
  need_built t "responsible_peers";
  let d = descend t key ~depth:Bitkey.width in
  if Array.length t.groups.(t.lo) = 0 then t.groups.(t.lo) <- Array.sub t.order.(d) t.lo t.size;
  t.groups.(t.lo)

let responsible t ~online key =
  need_built t "responsible";
  let row = t.order.(descend t key ~depth:Bitkey.width) in
  let rec scan i stop =
    if i = stop then None else if online row.(i) then Some row.(i) else scan (i + 1) stop
  in
  scan t.lo (t.lo + t.size)

let refs_at t ~peer ~level =
  if level < 0 || level >= t.cap then invalid_arg "Pgrid.refs_at: level out of range";
  Array.sub t.refs (base t peer level) (count t peer level)

type outcome = { responsible : int option; messages : int; hops : int }

let lookup ?span ?deliver t rng ~online ~source ~key =
  if source < 0 || source >= members t then invalid_arg "Pgrid.lookup: bad source";
  if not (online source) then { responsible = None; messages = 0; hops = 0 }
  else begin
    let messages = ref 0 and hops = ref 0 and current = ref source and failed = ref false in
    let arrived = ref (matches t key source) and candidates = t.lookup_buf in
    while (not !arrived) && not !failed do
      let l = match_length t key !current in
      let len = count t !current l in
      Array.blit t.refs (base t !current l) candidates 0 len;
      (* Try the level's references in a uniformly random order, but
         generate that order lazily (incremental Fisher-Yates): the scan
         stops at the first online reference, so drawing the full
         shuffle up front would waste RNG draws on candidates never
         contacted.  The sequence of tried candidates is distributed
         exactly as a scan over a fully shuffled copy. *)
      let next = ref (-1) in
      let i = ref 0 in
      while !next < 0 && !i < len do
        let j = !i + Rng.int rng (len - !i) in
        let c = candidates.(j) in
        candidates.(j) <- candidates.(!i);
        candidates.(!i) <- c;
        incr messages;
        if online c then next := c;
        incr i
      done;
      if !next >= 0 then begin
        (* Forward hop = one RPC under the network model; an exhausted
           retry budget fails the lookup like a dead level would. *)
        let delivered =
          match deliver with None -> true | Some d -> d ~span ~src:!current ~dst:!next
        in
        if delivered then begin
          incr hops;
          current := !next;
          (* On a built trie every hop extends the matched prefix by at
             least one bit, so the cap never fires there.  A grown trie
             can hold stale references (to peers that have since
             specialized away from the key), so progress is not
             guaranteed per hop. *)
          if matches t key !next then arrived := true
          else if !hops > 4 * t.cap then failed := true
        end
        else failed := true
      end
      else failed := true
    done;
    { responsible = (if !failed then None else Some !current); messages = !messages; hops = !hops }
  end

let probe_and_repair t rng ~online ~peer ~probes =
  if probes < 0 then invalid_arg "Pgrid.probe_and_repair: negative probes";
  need_built t "probe_and_repair";
  let levels = path_length t peer in
  if levels = 0 then 0
  else begin
    for _ = 1 to probes do
      let l = Rng.int rng levels in
      let len = count t peer l in
      if len > 0 then begin
        let slot = base t peer l + Rng.int rng len in
        if not (online t.refs.(slot)) then begin
          (* Replace with an online peer from the same complementary
             subtree, if one exists. *)
          complement t peer l;
          let row = t.order.(l + 1) in
          let rec attempt k =
            if k > 0 then
              let cand = row.(t.lo + Rng.int rng t.size) in
              if online cand then t.refs.(slot) <- cand else attempt (k - 1)
          in
          attempt (min 20 (2 * t.size))
        end
      end
    done;
    probes
  end

let routing_table_size t p =
  let rec sum l acc = if l = t.cap then acc else sum (l + 1) (acc + count t p l) in
  sum 0 0

(* Crash-stop state loss: empty every reference level of [peer].
   [lookup] from it then fails at the first hop (dead level) and the
   caller degrades to its miss path; [probe_and_repair] skips empty
   levels, so only {!rebuild_routes} restores them. *)
let forget_routes t ~peer = Bytes.fill t.count (peer * t.cap) t.cap '\000'

(* Rejoin: re-run the construction-time exchange for one peer.  One
   message per reference learned (the P-Grid exchange that taught it). *)
let rebuild_routes t rng ~peer =
  need_built t "rebuild_routes";
  sample_refs t rng peer

(* ------------------------------------------------------------------ *)
(* Growth by pairwise exchanges *)

let add_ref t peer ~level target =
  if level < t.cap && target <> peer then begin
    let b = base t peer level and c = count t peer level in
    let rec known s = s < c && (t.refs.(b + s) = target || known (s + 1)) in
    if not (known 0) then begin
      (* Newest first; a full level drops its oldest. *)
      let keep = min c (t.per - 1) in
      Array.blit t.refs b t.refs (b + 1) keep;
      t.refs.(b) <- target;
      set_count t peer level (keep + 1)
    end
  end

let extend t p one =
  let l = path_length t p in
  if one then t.bits.(p) <- Bitkey.flip_bit t.bits.(p) l;
  Bytes.set t.len p (Char.chr (l + 1))

(* One meeting.  [budget] bounds the recursive introductions so a single
   meeting terminates even in a fully built trie. *)
let rec exchange t rng p q budget =
  if p <> q && budget > 0 then begin
    let len_p = path_length t p and len_q = path_length t q in
    let l = min (min len_p len_q) (Bitkey.common_prefix_length t.bits.(p) t.bits.(q)) in
    if l = len_p then begin
      (* Equal paths: the region splits, p taking 0 and q 1.  Or p's
         path is a proper prefix of q's: p specializes to the branch
         complementary to q's next bit, keeping both covered. *)
      if len_p < t.cap then begin
        if l = len_q then begin
          extend t p false;
          extend t q true
        end
        else extend t p (not (Bitkey.bit t.bits.(q) l));
        add_ref t p ~level:l q;
        add_ref t q ~level:l p
      end
    end
    else if l = len_q then exchange t rng q p budget (* the symmetric case *)
    else begin
      (* Paths diverge at level l: exchange references and propagate the
         meeting into both subtrees through random introductions. *)
      add_ref t p ~level:l q;
      add_ref t q ~level:l p;
      introduce t rng p q l budget;
      introduce t rng q p l budget
    end
  end

and introduce t rng peer other l budget =
  let c = count t peer l in
  if c > 0 then exchange t rng t.refs.(base t peer l + Rng.int rng c) other (budget - 1)

let run_exchanges t rng ~meetings =
  if Array.length t.order > 0 then invalid_arg "Pgrid.run_exchanges: needs a grown trie";
  let n = members t in
  if n > 1 then
    for _ = 1 to meetings do
      let p = Rng.int rng n in
      let q = Rng.int rng n in
      exchange t rng p q 4
    done

(* ------------------------------------------------------------------ *)
(* Shape *)

type stats = {
  mean_path_length : float;
  max_path_length : int;
  min_path_length : int;
  distinct_paths : int;
  mean_refs : float;
}

let stats t =
  let n = members t in
  let total_len = ref 0 and max_len = ref 0 and min_len = ref max_int and total_refs = ref 0 in
  let distinct = Hashtbl.create n in
  for p = 0 to n - 1 do
    let len = path_length t p in
    total_len := !total_len + len;
    max_len := max !max_len len;
    min_len := min !min_len len;
    Hashtbl.replace distinct (t.bits.(p), len) ();
    total_refs := !total_refs + routing_table_size t p
  done;
  {
    mean_path_length = float_of_int !total_len /. float_of_int n;
    max_path_length = !max_len;
    min_path_length = !min_len;
    distinct_paths = Hashtbl.length distinct;
    mean_refs = float_of_int !total_refs /. float_of_int n;
  }

let lookup_success_rate t rng ~trials =
  if trials < 1 then invalid_arg "Pgrid.lookup_success_rate: need >= 1 trial";
  let online _ = true in
  let ok = ref 0 in
  for _ = 1 to trials do
    let key = Bitkey.random rng in
    let source = Rng.int rng (members t) in
    match (lookup t rng ~online ~source ~key).responsible with
    | Some r -> if matches t key r then incr ok
    | None -> ()
  done;
  float_of_int !ok /. float_of_int trials
