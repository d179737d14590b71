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
