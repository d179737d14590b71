type latency =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Lognormal of { mu : float; sigma : float }

type partition = {
  group_a : int array;
  group_b : int array;
  from_time : float;
  until_time : float;
}

type t = {
  latency : latency;
  loss : float;
  partitions : partition list;
  rpc_timeout : float;
  rpc_retries : int;
  backoff : float;
}

let default =
  {
    latency = Constant 0.05;
    loss = 0.;
    partitions = [];
    rpc_timeout = 1.0;
    rpc_retries = 3;
    backoff = 2.0;
  }

let zero_cost = { default with latency = Constant 0.; loss = 0. }

let validate t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let latency_ok =
    match t.latency with
    | Constant s when s >= 0. && Float.is_finite s -> Ok ()
    | Constant s -> err "latency constant %g must be finite and >= 0" s
    | Uniform { lo; hi } when 0. <= lo && lo <= hi && Float.is_finite hi -> Ok ()
    | Uniform { lo; hi } -> err "latency uniform [%g, %g) must satisfy 0 <= lo <= hi" lo hi
    | Lognormal { mu; sigma } when sigma >= 0. && Float.is_finite mu && Float.is_finite sigma
      ->
        Ok ()
    | Lognormal { mu; sigma } -> err "latency lognormal (mu=%g, sigma=%g) needs sigma >= 0" mu sigma
  in
  let partition_ok p =
    if not (p.from_time <= p.until_time) then
      err "partition window [%g, %g) is reversed" p.from_time p.until_time
    else if
      Array.exists (fun x -> x < 0) p.group_a || Array.exists (fun x -> x < 0) p.group_b
    then Error "partition groups must contain non-negative peer ids"
    else Ok ()
  in
  let rec all_ok = function
    | [] -> Ok ()
    | p :: rest -> ( match partition_ok p with Ok () -> all_ok rest | Error _ as e -> e)
  in
  match latency_ok with
  | Error _ as e -> e
  | Ok () ->
      if not (0. <= t.loss && t.loss <= 1.) then err "loss %g must be in [0, 1]" t.loss
      else if not (t.rpc_timeout > 0. && Float.is_finite t.rpc_timeout) then
        err "rpc_timeout %g must be finite and positive" t.rpc_timeout
      else if t.rpc_retries < 0 then err "rpc_retries %d must be >= 0" t.rpc_retries
      else if not (t.backoff >= 1. && Float.is_finite t.backoff) then
        err "backoff %g must be finite and >= 1" t.backoff
      else ( match all_ok t.partitions with Ok () -> Ok t | Error _ as e -> e)

let attempts t = 1 + t.rpc_retries

(* Attempt 0 hands back the field itself: [backoff ** 0.] is exactly 1,
   so the product is [rpc_timeout] bit for bit, and the first rung (the
   only one a lossless run takes) neither calls [pow] nor boxes a
   float. *)
let timeout_for t ~attempt =
  if attempt = 0 then t.rpc_timeout else t.rpc_timeout *. (t.backoff ** float_of_int attempt)

(* A top-level loop, so one [call] allocates no closure of its own. *)
let rec ladder t attempt k =
  match attempt ~attempt:k ~timeout:(timeout_for t ~attempt:k) with
  | Some _ as reply -> reply
  | None -> if k < t.rpc_retries then ladder t attempt (k + 1) else None

let call t attempt = ladder t attempt 0

let latency_to_string = function
  | Constant s -> Printf.sprintf "constant:%g" s
  | Uniform { lo; hi } -> Printf.sprintf "uniform:%g:%g" lo hi
  | Lognormal { mu; sigma } -> Printf.sprintf "lognormal:%g:%g" mu sigma

let latency_of_string s =
  let float_of s = try Some (float_of_string (String.trim s)) with _ -> None in
  match String.split_on_char ':' s with
  | [ v ] -> (
      match float_of v with
      | Some f -> Ok (Constant f)
      | None -> Error (Printf.sprintf "latency %S: expected a number or dist:params" s))
  | [ "constant"; v ] -> (
      match float_of v with
      | Some f -> Ok (Constant f)
      | None -> Error (Printf.sprintf "latency %S: constant needs one number" s))
  | [ "uniform"; lo; hi ] -> (
      match (float_of lo, float_of hi) with
      | Some lo, Some hi -> Ok (Uniform { lo; hi })
      | _ -> Error (Printf.sprintf "latency %S: uniform needs uniform:LO:HI" s))
  | [ "lognormal"; mu; sigma ] -> (
      match (float_of mu, float_of sigma) with
      | Some mu, Some sigma -> Ok (Lognormal { mu; sigma })
      | _ -> Error (Printf.sprintf "latency %S: lognormal needs lognormal:MU:SIGMA" s))
  | _ ->
      Error
        (Printf.sprintf
           "latency %S: expected SECONDS, constant:S, uniform:LO:HI or lognormal:MU:SIGMA" s)
