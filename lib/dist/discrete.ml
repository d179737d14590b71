type t = { probs : float array; sampler : Pdht_util.Sampling.Alias.t }

let of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Discrete.of_weights: empty";
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Discrete.of_weights: zero mass";
  let probs = Array.map (fun w -> w /. total) weights in
  { probs; sampler = Pdht_util.Sampling.Alias.create weights }

let uniform ~n = of_weights (Array.make n 1.)

let zipf ~n ~alpha =
  of_weights (Array.init n (fun i -> float_of_int (i + 1) ** -.alpha))

let hot_cold ~n ~hot ~hot_mass =
  if hot < 1 || hot >= n then invalid_arg "Discrete.hot_cold: need 1 <= hot < n";
  if hot_mass < 0. || hot_mass > 1. then invalid_arg "Discrete.hot_cold: hot_mass outside [0,1]";
  let w_hot = hot_mass /. float_of_int hot in
  let w_cold = (1. -. hot_mass) /. float_of_int (n - hot) in
  of_weights (Array.init n (fun i -> if i < hot then w_hot else w_cold))

let n t = Array.length t.probs

let prob t rank =
  if rank < 1 || rank > n t then invalid_arg "Discrete.prob: rank out of range";
  t.probs.(rank - 1)

let sample t rng = 1 + Pdht_util.Sampling.Alias.draw t.sampler rng
