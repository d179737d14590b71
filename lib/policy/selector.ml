module Params = Pdht_model.Params
module Index_policy = Pdht_model.Index_policy

type ttl_mode = Model_derived | Fixed of float | Adaptive
type spec = Ttl of ttl_mode | Cost_optimal

let default = Ttl Model_derived
let equal (a : spec) (b : spec) = a = b

let label = function
  | Ttl Model_derived -> "ttl"
  | Ttl (Fixed s) -> Printf.sprintf "ttl:%g" s
  | Ttl Adaptive -> "ttl:adaptive"
  | Cost_optimal -> "cost"

let to_string = label

let validate = function
  | Ttl (Fixed s) when not (Float.is_finite s && s > 0.) ->
      Error (Printf.sprintf "fixed ttl %g must be finite and positive" s)
  | s -> Ok s

let of_string s =
  let s = String.trim s in
  let unknown () = Error (Printf.sprintf "unknown policy %S (ttl / cost)" s) in
  let parsed =
    match String.index_opt s ':' with
    | None -> (
        match String.lowercase_ascii s with
        | "ttl" -> Ok (Ttl Model_derived)
        | "cost" -> Ok Cost_optimal
        | _ -> unknown ())
    | Some i -> (
        let head = String.lowercase_ascii (String.sub s 0 i) in
        let arg = String.sub s (i + 1) (String.length s - i - 1) in
        match head with
        | "ttl" -> (
            match String.lowercase_ascii arg with
            | "adaptive" -> Ok (Ttl Adaptive)
            | _ -> (
                match float_of_string_opt arg with
                | Some secs -> Ok (Ttl (Fixed secs))
                | None ->
                    Error
                      (Printf.sprintf "ttl argument %S: expected SECS or 'adaptive'" arg)))
        | _ -> unknown ())
  in
  match parsed with Ok spec -> validate spec | Error _ as e -> e

type event = Queried | Inserted | Rejected

type summary = {
  policy : string;
  retunes : int;
  observed_queries : int;
  admitted_inserts : int;
  rejected_inserts : int;
  target_keys : int;
  est_f_qry : float;
  threshold : float;
}

module Cost_optimal = struct
  type t = {
    params : Params.t;
    base_ttl : float;
    ttl_out : float;           (* lease for stored keys below the threshold *)
    freq : Freq.t;
    mutable observed : int;
    mutable admitted : int;
    mutable rejected : int;
    mutable retunes : int;
    mutable thr : float;       (* admission threshold: current fMin estimate *)
    mutable ttl_in : float;    (* lease for admitted keys *)
    mutable target : int;
    mutable have_fit : bool;
  }

  let create ~params ~base_ttl ~retune_every =
    if not (Float.is_finite base_ttl && base_ttl > 0.) then
      invalid_arg "Selector.Cost_optimal.create: base_ttl must be finite and positive";
    if not (retune_every > 0.) then
      invalid_arg "Selector.Cost_optimal.create: retune_every must be positive";
    {
      params;
      base_ttl;
      (* Short enough to decay within a refit period, but never below a
         second. *)
      ttl_out = Float.max 1. (Float.min base_ttl (0.5 *. retune_every));
      freq = Freq.create ~keys:params.Params.keys;
      observed = 0;
      admitted = 0;
      rejected = 0;
      retunes = 0;
      thr = 0.;
      ttl_in = base_ttl;
      target = -1;
      have_fit = false;
    }

  let observe t ~now:_ ~key_index = function
    | Queried ->
        t.observed <- t.observed + 1;
        Freq.note t.freq ~key_index
    | Inserted -> t.admitted <- t.admitted + 1
    | Rejected -> t.rejected <- t.rejected + 1

  let admit t ~now ~key_index =
    (* Warm up permissively: until the first fit there is no estimate
       to gate on, which reproduces the plain TTL behaviour.  The live
       window lets a key that turns hot mid-window back in without
       waiting for the next retune. *)
    (not t.have_fit) || Freq.live_rate t.freq ~now ~key_index >= t.thr

  let ttl_for t ~now ~key_index =
    if not t.have_fit then t.base_ttl
    else if Freq.live_rate t.freq ~now ~key_index >= t.thr then t.ttl_in
    else t.ttl_out

  let retune t ~now =
    Freq.fold t.freq ~now;
    t.retunes <- t.retunes + 1;
    let per_peer = Freq.total_rate t.freq /. float_of_int t.params.Params.num_peers in
    if per_peer > 0. then begin
      (* Re-solve the Eq. 1-2 fixed point against the *measured* query
         rate: the resulting fMin is the indexing-worthiness threshold
         keys must clear (Eq. 2). *)
      let solution = Index_policy.solve { t.params with Params.f_qry = per_peer } in
      let f_min = solution.Index_policy.f_min in
      if Float.is_finite f_min && f_min > 0. then begin
        t.thr <- f_min;
        (* Admitted keys get a lease a few expected inter-query gaps
           long: the paper's 1/fMin is the *marginal* key's gap, so a
           multiple keeps clearly-worthwhile keys from oscillating out
           on Poisson gaps.  Clamped to [1 s, 1e7 s]. *)
        t.ttl_in <- Float.max 1. (Float.min 1e7 (4. /. f_min));
        t.have_fit <- true
      end;
      let count = ref 0 in
      for k = 0 to t.params.Params.keys - 1 do
        if Freq.rate t.freq ~key_index:k >= t.thr && Freq.rate t.freq ~key_index:k > 0.
        then incr count
      done;
      t.target <- !count
    end

  let summary t =
    {
      policy = "cost";
      retunes = t.retunes;
      observed_queries = t.observed;
      admitted_inserts = t.admitted;
      rejected_inserts = t.rejected;
      target_keys = t.target;
      est_f_qry = Freq.total_rate t.freq /. float_of_int t.params.Params.num_peers;
      threshold = t.thr;
    }
end
