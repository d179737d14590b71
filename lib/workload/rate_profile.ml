type t =
  | Constant of float
  | Diurnal of { busy : float; calm : float; period : float; busy_fraction : float }

let constant rate =
  if not (rate > 0.) then invalid_arg "Rate_profile.constant: rate must be positive";
  Constant rate

let diurnal ~busy ~calm ~period ~busy_fraction =
  if not (busy > 0. && calm > 0.) then invalid_arg "Rate_profile.diurnal: rates must be positive";
  if not (period > 0.) then invalid_arg "Rate_profile.diurnal: period must be positive";
  if not (busy_fraction > 0. && busy_fraction < 1.) then
    invalid_arg "Rate_profile.diurnal: busy_fraction must be in (0,1)";
  Diurnal { busy; calm; period; busy_fraction }

let rate_at t time =
  let time = Float.max 0. time in
  match t with
  | Constant rate -> rate
  | Diurnal { busy; calm; period; busy_fraction } ->
      let phase = Float.rem time period /. period in
      if phase < busy_fraction then busy else calm

let max_rate t =
  match t with
  | Constant rate -> rate
  | Diurnal { busy; calm; _ } -> Float.max busy calm
