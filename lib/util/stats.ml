let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let harmonic_generalized ~n ~alpha =
  (* Summing smallest-first keeps the float error negligible even for
     millions of terms. *)
  let acc = ref 0. in
  for x = n downto 1 do
    acc := !acc +. (float_of_int x ** -.alpha)
  done;
  !acc
