type query_distribution =
  | Zipf of float
  | Uniform
  | Hot_cold of { hot : int; hot_mass : float }

type shift_plan =
  | No_shift
  | Swap_halves_at of float
  | Rotate of { times : float list; offset : int }

type rate_plan =
  | Steady
  | Diurnal of { calm_f_qry : float; period : float; busy_fraction : float }

type churn_plan =
  | No_churn
  | Exponential_sessions of {
      mean_uptime : float;
      mean_downtime : float;
      initially_online_fraction : float;
    }
  | Sessions of Pdht_dist.Session.spec

type t = {
  name : string;
  num_peers : int;
  keys : int;
  f_qry : float;
  rate : rate_plan;
  distribution : query_distribution;
  shift : shift_plan;
  churn : churn_plan;
  update_mean_lifetime : float option;
  duration : float;
  seed : int;
}

let news_default =
  {
    name = "news-scaled";
    num_peers = 1_000;
    keys = 2_000;
    f_qry = 1. /. 30.;
    rate = Steady;
    distribution = Zipf 1.2;
    shift = No_shift;
    churn = No_churn;
    update_mean_lifetime = Some 86_400.;
    duration = 3_600.;
    seed = 42;
  }

let with_scale t ~peers ~keys = { t with num_peers = peers; keys }

let distribution t =
  match t.distribution with
  | Zipf alpha -> Pdht_dist.Discrete.zipf ~n:t.keys ~alpha
  | Uniform -> Pdht_dist.Discrete.uniform ~n:t.keys
  | Hot_cold { hot; hot_mass } -> Pdht_dist.Discrete.hot_cold ~n:t.keys ~hot ~hot_mass

let rate_profile t =
  match t.rate with
  | Steady -> Rate_profile.constant t.f_qry
  | Diurnal { calm_f_qry; period; busy_fraction } ->
      Rate_profile.diurnal ~busy:t.f_qry ~calm:calm_f_qry ~period ~busy_fraction

let popularity_shift t =
  match t.shift with
  | No_shift -> Pdht_dist.Popularity_shift.static ~n:t.keys
  | Swap_halves_at time -> Pdht_dist.Popularity_shift.swap_halves_at ~n:t.keys ~time
  | Rotate { times; offset } ->
      Pdht_dist.Popularity_shift.rotate_at ~n:t.keys ~shift_times:times ~offset

let validate t =
  let check cond msg rest = if cond then rest () else Error msg in
  check (t.num_peers >= 2) "num_peers must be >= 2" @@ fun () ->
  check (t.keys >= 1) "keys must be >= 1" @@ fun () ->
  check (t.f_qry > 0.) "f_qry must be positive" @@ fun () ->
  check
    (match t.rate with
    | Steady -> true
    | Diurnal { calm_f_qry; period; busy_fraction } ->
        calm_f_qry > 0. && period > 0. && busy_fraction > 0. && busy_fraction < 1.)
    "invalid rate plan"
  @@ fun () ->
  check (t.duration > 0.) "duration must be positive" @@ fun () ->
  check
    (match t.update_mean_lifetime with None -> true | Some l -> l > 0.)
    "update_mean_lifetime must be positive"
  @@ fun () ->
  check
    (match t.churn with
    | No_churn -> true
    | Exponential_sessions { mean_uptime; mean_downtime; initially_online_fraction } ->
        mean_uptime > 0. && mean_downtime > 0.
        && initially_online_fraction >= 0.
        && initially_online_fraction <= 1.
    | Sessions spec -> Result.is_ok (Pdht_dist.Session.validate spec))
    "invalid churn plan"
  @@ fun () -> Ok t

let presets =
  let base = { news_default with num_peers = 800; keys = 1_600; duration = 2_400. } in
  [
    ( "news",
      "the paper's news system at 1/25 scale: Zipf(1.2) queries, daily updates",
      { base with name = "news" } );
    ( "flash-crowd",
      "breaking news halfway: the hot and cold key-space halves swap",
      { base with name = "flash-crowd"; shift = Swap_halves_at 1_200. } );
    ( "churn-storm",
      "transient clients: 10-minute sessions at 60% availability",
      {
        base with
        name = "churn-storm";
        churn =
          Exponential_sessions
            { mean_uptime = 600.; mean_downtime = 400.; initially_online_fraction = 0.6 };
      } );
    ( "busy-day",
      "the paper's busy/calm cycle: per-peer rate swings 1/30 <-> 1/600",
      {
        base with
        name = "busy-day";
        duration = 4_800.;
        rate = Diurnal { calm_f_qry = 1. /. 600.; period = 1_600.; busy_fraction = 0.5 };
      } );
    ( "uniform-stress",
      "no skew to exploit: uniform queries force a near-full index",
      { base with name = "uniform-stress"; distribution = Uniform } );
  ]

let preset name =
  List.find_map (fun (n, _, s) -> if String.equal n name then Some s else None) presets
