(* Order statistics for benchmark samples.  Quartiles use the same
   "exclusive" method as Python's [statistics.quantiles (n=4)], so the
   spreads printed here match the ones a reader recomputes from the
   result JSON. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(data, n=4, method='exclusive')]; with fewer
   than two samples every quartile is the sample itself. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Rank-[p] element of an already sorted array, [p] in [0,1]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_sorted: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) rank))

(* A metric's record over repeated measurements. *)
type summary = { median : float; q1 : float; q3 : float; n : int; samples : float list }

let summarize samples =
  let q1, _, q3 = quartiles samples in
  { median = median samples; q1; q3; n = List.length samples; samples }

(* IQR as a share of the median: the spread the bounds are judged by. *)
let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median
