type config = { timeout : float; retries : int; backoff : float }

let timeout_for config ~attempt = config.timeout *. (config.backoff ** float_of_int attempt)

let call config attempt =
  let rec go k =
    match attempt ~attempt:k ~timeout:(timeout_for config ~attempt:k) with
    | Some _ as reply -> reply
    | None -> if k < config.retries then go (k + 1) else None
  in
  go 0
