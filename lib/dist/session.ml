module Rng = Pdht_util.Rng

type dist =
  | Exponential
  | Lognormal of { sigma : float }
  | Weibull of { shape : float }
  | Pareto of { shape : float }

type spec = {
  up : dist;
  down : dist;
  mean_uptime : float;
  mean_downtime : float;
  initially_online_fraction : float;
}

let default_sigma = 1.5
let default_weibull_shape = 0.6
let default_pareto_shape = 1.5

(* Lanczos approximation of ln Gamma (g = 7, n = 9), accurate to well
   below the sampling noise of any churn run; only consulted at spec
   construction time to anchor the Weibull scale on the requested
   mean. *)
let lanczos =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection: ln G(x) = ln(pi / sin(pi x)) - ln G(1 - x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let two_pi = 2. *. Float.pi

(* Box–Muller, single leg: two uniforms per sample keeps the draw count
   fixed (the {!Pdht_net.Link_model} discipline — no cached second leg,
   whose lifetime would make the stream depend on call interleaving). *)
let standard_normal rng =
  let u1 = 1. -. Rng.unit_float rng (* (0, 1]: log stays finite *) in
  let u2 = Rng.unit_float rng in
  sqrt (-2. *. log u1) *. cos (two_pi *. u2)

let draw rng dist ~mean =
  match dist with
  | Exponential -> Rng.exponential rng ~rate:(1. /. mean)
  | Lognormal { sigma } ->
      (* mu anchored so E[X] = exp(mu + sigma^2/2) = mean. *)
      let mu = log mean -. (sigma *. sigma /. 2.) in
      exp (mu +. (sigma *. standard_normal rng))
  | Weibull { shape } ->
      (* scale = mean / Gamma(1 + 1/shape) so E[X] = mean. *)
      let scale = mean /. exp (log_gamma (1. +. (1. /. shape))) in
      let u = 1. -. Rng.unit_float rng in
      scale *. Float.pow (-.log u) (1. /. shape)
  | Pareto { shape } ->
      (* x_m = mean (shape - 1) / shape so E[X] = mean (shape > 1). *)
      let xm = mean *. (shape -. 1.) /. shape in
      let u = 1. -. Rng.unit_float rng in
      xm /. Float.pow u (1. /. shape)

let err fmt = Format.kasprintf (fun m -> Error m) fmt

let validate spec =
  let dist_ok what = function
    | Exponential -> Ok ()
    | Lognormal { sigma } ->
        if Float.is_finite sigma && sigma > 0. then Ok ()
        else err "%s sigma %g must be finite and > 0" what sigma
    | Weibull { shape } ->
        if Float.is_finite shape && shape > 0. then Ok ()
        else err "%s weibull shape %g must be finite and > 0" what shape
    | Pareto { shape } ->
        if Float.is_finite shape && shape > 1. then Ok ()
        else err "%s pareto shape %g must be > 1 (finite mean)" what shape
  in
  match dist_ok "uptime" spec.up with
  | Error _ as e -> e
  | Ok () -> (
      match dist_ok "downtime" spec.down with
      | Error _ as e -> e
      | Ok () ->
          if not (Float.is_finite spec.mean_uptime && spec.mean_uptime > 0.) then
            err "mean uptime %g must be finite and > 0" spec.mean_uptime
          else if not (Float.is_finite spec.mean_downtime && spec.mean_downtime > 0.)
          then err "mean downtime %g must be finite and > 0" spec.mean_downtime
          else if
            not
              (Float.is_finite spec.initially_online_fraction
              && spec.initially_online_fraction >= 0.
              && spec.initially_online_fraction <= 1.)
          then
            err "initially-online fraction %g must be in [0, 1]"
              spec.initially_online_fraction
          else Ok spec)

(* The grammar is ':'-separated on purpose: session specs must embed in
   a {!Pdht_fault.Plan} clause ([churn:SPEC@T+D]), whose event list
   splits on ',' — a comma anywhere here would truncate the plan. *)

let dist_name = function
  | Exponential -> "exp"
  | Lognormal _ -> "lognormal"
  | Weibull _ -> "weibull"
  | Pareto _ -> "pareto"

let to_string spec =
  let shape_field =
    match spec.up with
    | Exponential -> ""
    | Lognormal { sigma } -> Printf.sprintf ":sigma=%g" sigma
    | Weibull { shape } | Pareto { shape } -> Printf.sprintf ":shape=%g" shape
  in
  Printf.sprintf "%s:up=%g:down=%g%s:on=%g" (dist_name spec.up) spec.mean_uptime
    spec.mean_downtime shape_field spec.initially_online_fraction

let float_of s = try Some (float_of_string (String.trim s)) with _ -> None

let of_string s =
  let bad why = err "session spec %S: %s" s why in
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> bad "empty"
  | name :: fields -> (
      let parse_fields () =
        let up = ref None and down = ref None in
        let shape = ref None and on = ref None in
        let rec go = function
          | [] -> Ok ()
          | field :: rest -> (
              match String.index_opt field '=' with
              | None -> err "session spec %S: field %S is not KEY=VALUE" s field
              | Some eq -> (
                  let key = String.sub field 0 eq in
                  let value =
                    String.sub field (eq + 1) (String.length field - eq - 1)
                  in
                  match (String.trim key, float_of value) with
                  | _, None -> err "session spec %S: bad number in %S" s field
                  | "up", v ->
                      up := v;
                      go rest
                  | "down", v ->
                      down := v;
                      go rest
                  | "sigma", v | "shape", v ->
                      shape := v;
                      go rest
                  | "on", v ->
                      on := v;
                      go rest
                  | k, _ ->
                      err "session spec %S: unknown field %S (up/down/sigma/shape/on)"
                        s k))
        in
        match go fields with
        | Error _ as e -> e
        | Ok () -> Ok (!up, !down, !shape, !on)
      in
      match parse_fields () with
      | Error _ as e -> e
      | Ok (up, down, shape, on) -> (
          let dist =
            match String.trim name with
            | "exp" | "exponential" -> Ok Exponential
            | "lognormal" ->
                Ok (Lognormal { sigma = Option.value shape ~default:default_sigma })
            | "weibull" ->
                Ok (Weibull { shape = Option.value shape ~default:default_weibull_shape })
            | "pareto" ->
                Ok (Pareto { shape = Option.value shape ~default:default_pareto_shape })
            | other -> bad ("unknown distribution " ^ other
                            ^ " (exp / lognormal / weibull / pareto)")
          in
          match dist with
          | Error _ as e -> e
          | Ok dist ->
              if dist = Exponential && shape <> None then
                bad "exp takes no sigma/shape"
              else
                let mean_uptime = Option.value up ~default:600. in
                let mean_downtime = Option.value down ~default:400. in
                let initially_online_fraction =
                  match on with
                  | Some f -> f
                  | None -> mean_uptime /. (mean_uptime +. mean_downtime)
                in
                validate
                  {
                    up = dist;
                    down = dist;
                    mean_uptime;
                    mean_downtime;
                    initially_online_fraction;
                  }))
