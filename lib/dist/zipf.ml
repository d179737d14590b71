type t = {
  n : int;
  probs : float array; (* probs.(r-1) = prob of rank r *)
  cumulative : float array; (* cumulative.(r) = sum of the top r ranks *)
}

let create ~n ~alpha =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if alpha < 0. then invalid_arg "Zipf.create: alpha must be >= 0";
  let weights = Array.init n (fun i -> float_of_int (i + 1) ** -.alpha) in
  let total = Pdht_util.Stats.harmonic_generalized ~n ~alpha in
  let probs = Array.map (fun w -> w /. total) weights in
  let cumulative = Array.make (n + 1) 0. in
  for r = 1 to n do
    (* Clamp: float summation can land a hair above 1. *)
    cumulative.(r) <- Float.min 1. (cumulative.(r - 1) +. probs.(r - 1))
  done;
  { n; probs; cumulative }

let n t = t.n

let prob t rank =
  if rank < 1 || rank > t.n then invalid_arg "Zipf.prob: rank out of range";
  t.probs.(rank - 1)

let mass_of_top t rank =
  if rank < 0 || rank > t.n then invalid_arg "Zipf.mass_of_top: rank out of range";
  t.cumulative.(rank)

let expected_hit_prob_at_least_once t ~rank ~trials =
  if trials < 0. then invalid_arg "Zipf.expected_hit_prob_at_least_once: negative trials";
  let p = prob t rank in
  if p >= 1. then 1. else -.Float.expm1 (trials *. Float.log1p (-.p))
