type t = {
  gamma : float;
  inv_log_gamma : float;
  mutable counts : int array; (* counts.(0) = values in [0,1) *)
  mutable used : int;         (* highest occupied bucket + 1 *)
  mutable count : int;
  (* All-float record, so the per-record accumulator stores stay flat:
     mutable float fields of a mixed record would re-box on every
     [record] call. *)
  acc : acc;
}
and acc = { mutable sum : float; mutable min : float; mutable max : float }

let default_gamma = Float.exp (Float.log 2. /. 8.)

let create ?(gamma = default_gamma) () =
  if not (gamma > 1.) then invalid_arg "Histogram.create: gamma must be > 1";
  {
    gamma;
    inv_log_gamma = 1. /. Float.log gamma;
    counts = [||];
    used = 0;
    count = 0;
    acc = { sum = 0.; min = infinity; max = neg_infinity };
  }

let gamma t = t.gamma

let bucket_index t v =
  if v < 1. then 0
  else 1 + int_of_float (Float.floor (Float.log v *. t.inv_log_gamma))

let record t v =
  if not (Float.is_finite v) || v < 0. then
    invalid_arg "Histogram.record: value must be finite and non-negative";
  let idx = bucket_index t v in
  if idx >= Array.length t.counts then begin
    let bigger = Array.make (max 32 (2 * (idx + 1))) 0 in
    Array.blit t.counts 0 bigger 0 (Array.length t.counts);
    t.counts <- bigger
  end;
  t.counts.(idx) <- t.counts.(idx) + 1;
  if idx + 1 > t.used then t.used <- idx + 1;
  t.count <- t.count + 1;
  let acc = t.acc in
  acc.sum <- acc.sum +. v;
  if v < acc.min then acc.min <- v;
  if v > acc.max then acc.max <- v

let record_int t n = record t (float_of_int n)

let count t = t.count
let sum t = t.acc.sum
let mean t = if t.count = 0 then 0. else t.acc.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0. else t.acc.min
let max_value t = if t.count = 0 then 0. else t.acc.max

let bucket_lower t i = if i = 0 then 0. else t.gamma ** float_of_int (i - 1)
let bucket_upper t i = if i = 0 then 1. else t.gamma ** float_of_int i

(* Representative value of a bucket: 0.5 for the [0,1) bucket, the
   geometric midpoint otherwise. *)
let bucket_mid t i =
  if i = 0 then 0.5 else Float.sqrt (bucket_lower t i *. bucket_upper t i)

let quantile t p =
  if p < 0. || p > 1. then invalid_arg "Histogram.quantile: p outside [0,1]";
  if t.count = 0 then 0.
  else begin
    (* Rank of the requested order statistic, 1-based, matching the
       nearest-rank definition. *)
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int t.count)))
    in
    let idx = ref 0 in
    let seen = ref 0 in
    (try
       for i = 0 to t.used - 1 do
         seen := !seen + t.counts.(i);
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let estimate = bucket_mid t !idx in
    Float.min t.acc.max (Float.max t.acc.min estimate)
  end

let nonzero_buckets t =
  let acc = ref [] in
  for i = t.used - 1 downto 0 do
    if t.counts.(i) > 0 then
      acc := (bucket_lower t i, bucket_upper t i, t.counts.(i)) :: !acc
  done;
  !acc

let merge ~into src =
  if into == src then invalid_arg "Histogram.merge: cannot merge a histogram into itself";
  if into.gamma <> src.gamma then
    invalid_arg
      (Printf.sprintf "Histogram.merge: gamma mismatch (%g vs %g)" into.gamma src.gamma);
  if src.count > 0 then begin
    if src.used > Array.length into.counts then begin
      let bigger = Array.make (max 32 (2 * src.used)) 0 in
      Array.blit into.counts 0 bigger 0 (Array.length into.counts);
      into.counts <- bigger
    end;
    for i = 0 to src.used - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    if src.used > into.used then into.used <- src.used;
    into.count <- into.count + src.count;
    into.acc.sum <- into.acc.sum +. src.acc.sum;
    if src.acc.min < into.acc.min then into.acc.min <- src.acc.min;
    if src.acc.max > into.acc.max then into.acc.max <- src.acc.max
  end

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summary (t : t) =
  {
    count = t.count;
    mean = mean t;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p95 = quantile t 0.95;
    p99 = quantile t 0.99;
    max = max_value t;
  }

let summary_to_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("mean", Json.Float s.mean);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p95", Json.Float s.p95);
      ("p99", Json.Float s.p99);
      ("max", Json.Float s.max);
    ]

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.2f p50=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f"
    s.count s.mean s.p50 s.p90 s.p95 s.p99 s.max
