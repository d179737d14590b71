(* EMA weight of each new window. *)
let smoothing = 0.5

type t = {
  keys : int;
  counts : int array;
  rates : float array;
  mutable window_start : float;
  mutable window_total : int;
  mutable seeded : bool;
  mutable est_total : float;
}

let create ~keys =
  if keys < 1 then invalid_arg "Freq.create: keys must be >= 1";
  {
    keys;
    counts = Array.make keys 0;
    rates = Array.make keys 0.;
    window_start = 0.;
    window_total = 0;
    seeded = false;
    est_total = 0.;
  }

let check_key t key_index =
  if key_index < 0 || key_index >= t.keys then invalid_arg "Freq: key_index out of range"

let note t ~key_index =
  check_key t key_index;
  t.counts.(key_index) <- t.counts.(key_index) + 1;
  t.window_total <- t.window_total + 1

let fold t ~now =
  let elapsed = now -. t.window_start in
  if elapsed > 0. then begin
    let beta = smoothing in
    let first = not t.seeded in
    for k = 0 to t.keys - 1 do
      let w = float_of_int t.counts.(k) /. elapsed in
      t.rates.(k) <- (if first then w else ((1. -. beta) *. t.rates.(k)) +. (beta *. w));
      t.counts.(k) <- 0
    done;
    let w_total = float_of_int t.window_total /. elapsed in
    t.est_total <-
      (if first then w_total else ((1. -. beta) *. t.est_total) +. (beta *. w_total));
    t.window_total <- 0;
    t.seeded <- true;
    t.window_start <- now
  end

let rate t ~key_index =
  check_key t key_index;
  t.rates.(key_index)

let live_rate t ~now ~key_index =
  check_key t key_index;
  let elapsed = now -. t.window_start in
  let window =
    if elapsed > 0. then float_of_int t.counts.(key_index) /. elapsed else 0.
  in
  Float.max t.rates.(key_index) window

let total_rate t = t.est_total
