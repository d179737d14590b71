module Rng = Pdht_util.Rng

type compiled_partition = {
  side_a : int array; (* sorted *)
  side_b : int array; (* sorted *)
  from_time : float;
  until_time : float;
}

type t = {
  config : Config.t;
  parts : compiled_partition array;
  loss : float;
}

let sorted_copy a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let create config =
  match Config.validate config with
  | Error msg -> invalid_arg ("Link_model.create: " ^ msg)
  | Ok config ->
      let parts =
        Array.of_list
          (List.map
             (fun (p : Config.partition) ->
               {
                 side_a = sorted_copy p.Config.group_a;
                 side_b = sorted_copy p.Config.group_b;
                 from_time = p.Config.from_time;
                 until_time = p.Config.until_time;
               })
             config.Config.partitions)
      in
      { config; parts; loss = config.Config.loss }

let config t = t.config

let mem_sorted a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = x

let two_pi = 2. *. Float.pi

let sample_latency t rng =
  match t.config.Config.latency with
  | Config.Constant s -> s
  | Config.Uniform { lo; hi } -> if hi > lo then lo +. Rng.float rng (hi -. lo) else lo
  | Config.Lognormal { mu; sigma } ->
      (* Box–Muller, single leg: two uniforms per sample keeps the draw
         count fixed (no cached second leg, whose lifetime would make
         the stream depend on call interleaving). *)
      let u1 = 1. -. Rng.unit_float rng (* (0, 1]: log stays finite *) in
      let u2 = Rng.unit_float rng in
      let z = sqrt (-2. *. log u1) *. cos (two_pi *. u2) in
      exp (mu +. (sigma *. z))

let partitioned t ~src ~dst ~now =
  let n = Array.length t.parts in
  let rec check i =
    if i = n then false
    else
      let p = t.parts.(i) in
      if
        p.from_time <= now && now < p.until_time
        && ((mem_sorted p.side_a src && mem_sorted p.side_b dst)
           || (mem_sorted p.side_a dst && mem_sorted p.side_b src))
      then true
      else check (i + 1)
  in
  n > 0 && check 0

let lost t rng = t.loss > 0. && Rng.bernoulli rng ~p:t.loss
