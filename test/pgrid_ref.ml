(* Verbatim copies of [Pdht_dht.Pgrid] and [Pdht_dht.Pgrid_bootstrap]
   as they were with string paths: the balanced-split trie with a
   [Hashtbl] from every prefix to its peers and [int array array array]
   references, and the exchange bootstrap with [int list] reference
   levels.  test_dht's "pgrid matches the string-path reference" drives
   them beside the flat-row module with the same seeds and operations
   and requires equal paths, reference rows, outcomes and next RNG
   draw.  Do not edit them to follow the library. *)

module Pgrid = struct
  module Bitkey = Pdht_util.Bitkey
  module Rng = Pdht_util.Rng
  module Sampling = Pdht_util.Sampling

  type t = {
    paths : string array; (* peer -> binary path *)
    refs : int array array array; (* peer -> level -> complementary references *)
    leaves : (string, int array) Hashtbl.t; (* terminal path -> replica group *)
    subtrees : (string, int array) Hashtbl.t; (* any trie prefix -> peers under it *)
    refs_per_level : int;
    max_depth : int;
    (* Per-instance candidate buffer for [lookup]: each hop copies the
       current level's references here and shuffles the prefix, instead of
       allocating an [Array.copy] per hop.  Single-owner state — a P-Grid
       instance belongs to one simulated system / domain. *)
    lookup_buf : int array;
    (* Flat binary trie over the leaf paths, for allocation-free
       [responsible_peers]: descending the string-keyed [leaves] table
       would build a prefix string per level on every call, and replica
       subnetworks resolve their groups through this on the query path.
       [trie_child.(2 * node + bit)] is the child node or -1;
       [trie_leaf.(node)] is the leaf's replica group, [||] for interior
       nodes. *)
    trie_child : int array;
    trie_leaf : int array array;
  }

  let members t = Array.length t.paths
  let path_of t p = t.paths.(p)
  let path_length t p = String.length t.paths.(p)
  let max_path_length t = t.max_depth

  let build rng ~members:n ~leaf_size ~refs_per_level =
    if n < 1 then invalid_arg "Pgrid.build: need >= 1 member";
    if leaf_size < 1 then invalid_arg "Pgrid.build: leaf_size must be >= 1";
    if refs_per_level < 1 then invalid_arg "Pgrid.build: refs_per_level must be >= 1";
    let paths = Array.make n "" in
    let leaves = Hashtbl.create 64 in
    let subtrees = Hashtbl.create 256 in
    let max_depth = ref 0 in
    (* Balanced recursive split: both halves differ in size by at most
       one, giving near-uniform path lengths — the shape a converged
       P-Grid reaches under uniform load. *)
    let rec split prefix peers =
      Hashtbl.replace subtrees prefix peers;
      if Array.length peers <= leaf_size || String.length prefix >= Bitkey.width then begin
        Hashtbl.replace leaves prefix peers;
        Array.iter (fun p -> paths.(p) <- prefix) peers;
        if String.length prefix > !max_depth then max_depth := String.length prefix
      end
      else begin
        let shuffled = Array.copy peers in
        Sampling.shuffle rng shuffled;
        let half = Array.length shuffled / 2 in
        split (prefix ^ "0") (Array.sub shuffled 0 half);
        split (prefix ^ "1") (Array.sub shuffled half (Array.length shuffled - half))
      end
    in
    split "" (Array.init n Fun.id);
    let complement path l =
      let flipped = if path.[l] = '0' then '1' else '0' in
      String.sub path 0 l ^ String.make 1 flipped
    in
    let refs =
      Array.init n (fun p ->
          let path = paths.(p) in
          Array.init (String.length path) (fun l ->
              let pool = Hashtbl.find subtrees (complement path l) in
              let k = min refs_per_level (Array.length pool) in
              let idx = Sampling.sample_without_replacement rng ~k ~n:(Array.length pool) in
              Array.map (fun i -> pool.(i)) idx))
    in
    (* Materialise the leaf trie as flat arrays.  Node 0 is the root; the
       node count is bounded by one interior node per path character plus
       the root. *)
    let node_bound =
      1 + Hashtbl.fold (fun path _ acc -> acc + String.length path) leaves 0
    in
    let trie_child = Array.make (2 * node_bound) (-1) in
    let trie_leaf = Array.make node_bound [||] in
    let next_node = ref 1 in
    Hashtbl.iter
      (fun path peers ->
        let node = ref 0 in
        String.iter
          (fun c ->
            let slot = (2 * !node) + if c = '1' then 1 else 0 in
            (if trie_child.(slot) < 0 then begin
               trie_child.(slot) <- !next_node;
               incr next_node
             end);
            node := trie_child.(slot))
          path;
        trie_leaf.(!node) <- peers)
      leaves;
    { paths; refs; leaves; subtrees; refs_per_level; max_depth = !max_depth;
      lookup_buf = Array.make (max 1 refs_per_level) 0; trie_child; trie_leaf }

  (* Top-level recursion (not local closures): [lookup] calls these a
     couple of times per hop, and a local [let rec] would allocate its
     closure on every call. *)
  let rec key_matches_from key path i =
    i = String.length path
    || (Bitkey.bit key i = (String.unsafe_get path i = '1') && key_matches_from key path (i + 1))

  let key_matches_path key path = key_matches_from key path 0

  let rec match_length_from key path n i =
    if i < n && Bitkey.bit key i = (String.unsafe_get path i = '1') then
      match_length_from key path n (i + 1)
    else i

  (* Length of the longest common prefix of the key's bits and [path]. *)
  let match_length key path = match_length_from key path (String.length path) 0

  let responsible_peers t key =
    (* Walk the flat trie by key bits — no prefix strings, no lookups in
       the string-keyed tables.  Returns the shared group array exactly
       as the table-backed descent did; callers treat it as read-only. *)
    let rec walk node i =
      let leaf = t.trie_leaf.(node) in
      if Array.length leaf > 0 then leaf
      else if i >= Bitkey.width then [||]
      else
        let child = t.trie_child.((2 * node) + if Bitkey.bit key i then 1 else 0) in
        if child < 0 then [||] else walk child (i + 1)
    in
    walk 0 0

  let responsible t ~online key =
    let peers = responsible_peers t key in
    let rec scan i =
      if i = Array.length peers then None
      else if online peers.(i) then Some peers.(i)
      else scan (i + 1)
    in
    scan 0

  let refs_at t ~peer ~level =
    if level < 0 || level >= Array.length t.refs.(peer) then
      invalid_arg "Pgrid.refs_at: level out of range";
    t.refs.(peer).(level)

  type outcome = { responsible : int option; messages : int; hops : int }

  let lookup ?span ?deliver t rng ~online ~source ~key =
    if source < 0 || source >= members t then invalid_arg "Pgrid.lookup: bad source";
    if not (online source) then { responsible = None; messages = 0; hops = 0 }
    else begin
      let messages = ref 0 in
      let hops = ref 0 in
      let current = ref source in
      let failed = ref false in
      let arrived = ref (key_matches_path key t.paths.(source)) in
      (* Every hop extends the matched prefix by at least one bit, so the
         loop runs at most [max_depth] times. *)
      while (not !arrived) && not !failed do
        let path = t.paths.(!current) in
        let l = match_length key path in
        let refs = t.refs.(!current).(l) in
        let len = Array.length refs in
        let candidates = t.lookup_buf in
        Array.blit refs 0 candidates 0 len;
        (* Try the level's references in a uniformly random order, but
           generate that order lazily (incremental Fisher-Yates): the
           scan stops at the first online reference, so drawing the full
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
            if key_matches_path key t.paths.(!next) then arrived := true
          end
          else failed := true
        end
        else failed := true
      done;
      if !failed then { responsible = None; messages = !messages; hops = !hops }
      else { responsible = Some !current; messages = !messages; hops = !hops }
    end

  let probe_and_repair t rng ~online ~peer ~probes =
    if probes < 0 then invalid_arg "Pgrid.probe_and_repair: negative probes";
    let levels = Array.length t.refs.(peer) in
    if levels = 0 then 0
    else begin
      for _ = 1 to probes do
        let l = Rng.int rng levels in
        let arr = t.refs.(peer).(l) in
        if Array.length arr > 0 then begin
          let i = Rng.int rng (Array.length arr) in
          if not (online arr.(i)) then begin
            (* Replace with an online peer from the same complementary
               subtree, if one exists. *)
            let path = t.paths.(peer) in
            let flipped = if path.[l] = '0' then '1' else '0' in
            let comp = String.sub path 0 l ^ String.make 1 flipped in
            let pool = Hashtbl.find t.subtrees comp in
            let tries = min 20 (2 * Array.length pool) in
            let rec attempt k =
              if k = 0 then ()
              else
                let cand = pool.(Rng.int rng (Array.length pool)) in
                if online cand then arr.(i) <- cand else attempt (k - 1)
            in
            attempt tries
          end
        end
      done;
      probes
    end

  let routing_table_size t p =
    Array.fold_left (fun acc refs -> acc + Array.length refs) 0 t.refs.(p)

  let complement_prefix path l =
    let flipped = if path.[l] = '0' then '1' else '0' in
    String.sub path 0 l ^ String.make 1 flipped

  (* Crash-stop state loss: empty every reference level of [peer].
     [lookup] from it then fails at the first hop (dead level) and the
     caller degrades to its miss path; [probe_and_repair] skips empty
     levels, so only {!rebuild_routes} restores them. *)
  let forget_routes t ~peer =
    let refs = t.refs.(peer) in
    for l = 0 to Array.length refs - 1 do
      refs.(l) <- [||]
    done

  (* Rejoin: re-run the construction-time exchange for one peer — sample
     [refs_per_level] fresh references from each complementary subtree.
     One message per reference learned (the P-Grid exchange that taught
     it). *)
  let rebuild_routes t rng ~peer =
    let path = t.paths.(peer) in
    let refs = t.refs.(peer) in
    let messages = ref 0 in
    for l = 0 to Array.length refs - 1 do
      let pool = Hashtbl.find t.subtrees (complement_prefix path l) in
      let k = min t.refs_per_level (Array.length pool) in
      let idx = Sampling.sample_without_replacement rng ~k ~n:(Array.length pool) in
      refs.(l) <- Array.map (fun i -> pool.(i)) idx;
      messages := !messages + k
    done;
    !messages
end

module Bootstrap = struct
  module Bitkey = Pdht_util.Bitkey
  module Rng = Pdht_util.Rng

  type t = {
    paths : string array; (* peer -> current path; grows during bootstrap *)
    refs : int list array array; (* peer -> level -> references, newest first *)
  }

  (* Paths specialize to at most [max_depth] bits; a reference list holds
     at most [refs_per_level] peers. *)
  let max_depth = 20
  let refs_per_level = 4

  let create ~members () =
    if members < 1 then invalid_arg "Pgrid_bootstrap.create: need >= 1 member";
    {
      paths = Array.make members "";
      refs = Array.init members (fun _ -> Array.make max_depth []);
    }

  let members t = Array.length t.paths
  let path_of t p = t.paths.(p)

  let refs_at t ~peer ~level =
    if level < 0 || level >= max_depth then invalid_arg "Pgrid_bootstrap.refs_at: bad level";
    Array.of_list t.refs.(peer).(level)

  let add_ref t peer ~level target =
    if level < max_depth && target <> peer then begin
      let existing = t.refs.(peer).(level) in
      if not (List.mem target existing) then begin
        let trimmed =
          if List.length existing >= refs_per_level then
            List.filteri (fun i _ -> i < refs_per_level - 1) existing
          else existing
        in
        t.refs.(peer).(level) <- target :: trimmed
      end
    end

  let common_prefix_length a b =
    let n = min (String.length a) (String.length b) in
    let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
    go 0

  (* One meeting.  [budget] bounds the recursive introductions so a single
     meeting terminates even in a fully built trie. *)
  let rec exchange t rng p q budget =
    if p <> q && budget > 0 then begin
      let pa = t.paths.(p) and qa = t.paths.(q) in
      let l = common_prefix_length pa qa in
      let len_p = String.length pa and len_q = String.length qa in
      if l = len_p && l = len_q then begin
        (* Identical paths: split the region. *)
        if len_p < max_depth then begin
          t.paths.(p) <- pa ^ "0";
          t.paths.(q) <- qa ^ "1";
          add_ref t p ~level:l q;
          add_ref t q ~level:l p
        end
      end
      else if l = len_p then begin
        (* pa is a proper prefix of qa: p specializes to the branch
           complementary to q's next bit, keeping both covered. *)
        if len_p < max_depth then begin
          let complement = if qa.[len_p] = '0' then "1" else "0" in
          t.paths.(p) <- pa ^ complement;
          add_ref t p ~level:len_p q;
          add_ref t q ~level:len_p p
        end
      end
      else if l = len_q then
        (* Symmetric case. *)
        exchange t rng q p budget
      else begin
        (* Paths diverge at level l: exchange references and propagate the
           meeting into both subtrees through random introductions. *)
        add_ref t p ~level:l q;
        add_ref t q ~level:l p;
        let introduce peer other =
          match t.refs.(peer).(l) with
          | [] -> ()
          | refs ->
              let arr = Array.of_list refs in
              let pick = arr.(Rng.int rng (Array.length arr)) in
              exchange t rng pick other (budget - 1)
        in
        introduce p q;
        introduce q p
      end
    end

  let run_exchanges t rng ~meetings =
    let n = members t in
    if n > 1 then
      for _ = 1 to meetings do
        let p = Rng.int rng n in
        let q = Rng.int rng n in
        exchange t rng p q 4
      done

  let key_matches_path key path =
    let rec go i = i = String.length path || (Bitkey.bit key i = (path.[i] = '1') && go (i + 1)) in
    go 0

  let responsible_peers t key =
    let acc = ref [] in
    for p = members t - 1 downto 0 do
      if key_matches_path key t.paths.(p) then acc := p :: !acc
    done;
    Array.of_list !acc

  let match_length key path =
    let n = String.length path in
    let rec go i = if i < n && Bitkey.bit key i = (path.[i] = '1') then go (i + 1) else i in
    go 0

  type outcome = { responsible : int option; messages : int; hops : int }

  let lookup t rng ~online ~source ~key =
    if source < 0 || source >= members t then invalid_arg "Pgrid_bootstrap.lookup: bad source";
    if not (online source) then { responsible = None; messages = 0; hops = 0 }
    else begin
      let messages = ref 0 in
      let hops = ref 0 in
      let current = ref source in
      let failed = ref false in
      let arrived = ref (key_matches_path key t.paths.(source)) in
      while (not !arrived) && not !failed do
        let path = t.paths.(!current) in
        let l = match_length key path in
        let candidates =
          if l < max_depth then Array.of_list t.refs.(!current).(l) else [||]
        in
        if Array.length candidates = 0 then failed := true
        else begin
          let shuffled = Array.copy candidates in
          Pdht_util.Sampling.shuffle rng shuffled;
          let next = ref None in
          let i = ref 0 in
          while !next = None && !i < Array.length shuffled do
            incr messages;
            if online shuffled.(!i) then next := Some shuffled.(!i);
            incr i
          done;
          match !next with
          | None -> failed := true
          | Some p ->
              incr hops;
              (* The bootstrap trie can hold stale references (to peers
                 that have since specialized into the same side as the key
                 no longer matching); progress is not guaranteed per hop,
                 so also bail out after too many hops. *)
              current := p;
              if key_matches_path key t.paths.(p) then arrived := true
              else if !hops > 4 * max_depth then failed := true
        end
      done;
      if !failed then { responsible = None; messages = !messages; hops = !hops }
      else { responsible = Some !current; messages = !messages; hops = !hops }
    end

  type stats = {
    mean_path_length : float;
    max_path_length : int;
    min_path_length : int;
    distinct_paths : int;
    mean_refs : float;
  }

  let stats t =
    let n = members t in
    let total_len = ref 0 in
    let max_len = ref 0 in
    let min_len = ref max_int in
    let total_refs = ref 0 in
    let distinct = Hashtbl.create n in
    for p = 0 to n - 1 do
      let len = String.length t.paths.(p) in
      total_len := !total_len + len;
      if len > !max_len then max_len := len;
      if len < !min_len then min_len := len;
      Hashtbl.replace distinct t.paths.(p) ();
      Array.iter (fun refs -> total_refs := !total_refs + List.length refs) t.refs.(p)
    done;
    {
      mean_path_length = float_of_int !total_len /. float_of_int n;
      max_path_length = !max_len;
      min_path_length = !min_len;
      distinct_paths = Hashtbl.length distinct;
      mean_refs = float_of_int !total_refs /. float_of_int n;
    }

  let lookup_success_rate t rng ~trials =
    if trials < 1 then invalid_arg "Pgrid_bootstrap.lookup_success_rate: need >= 1 trial";
    let online _ = true in
    let ok = ref 0 in
    for _ = 1 to trials do
      let key = Bitkey.random rng in
      let source = Rng.int rng (members t) in
      let o = lookup t rng ~online ~source ~key in
      match o.responsible with
      | Some r -> if key_matches_path key t.paths.(r) then incr ok
      | None -> ()
    done;
    float_of_int !ok /. float_of_int trials
end
