module Session = Pdht_dist.Session

type callback = peer:int -> now_online:bool -> time:float -> unit

type t = {
  rng : Pdht_util.Rng.t option; (* None = static, always online *)
  online : bool array;
  mean_uptime : float;
  mean_downtime : float;
  up_dist : Session.dist;
  down_dist : Session.dist;
  mutable online_count : int;
  mutable session_changes : int;
  (* Growable array, fired in registration order.  The old list-append
     registration ([callbacks @ [f]]) was O(n^2) across n registrations
     — quadratic in peers for per-peer rejoin hooks. *)
  mutable callbacks : callback array;
  mutable callback_count : int;
}

let make ~rng ~online ~mean_uptime ~mean_downtime ~up_dist ~down_dist =
  let online_count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 online in
  { rng; online; mean_uptime; mean_downtime; up_dist; down_dist; online_count;
    session_changes = 0; callbacks = [||]; callback_count = 0 }

let create rng ~peers (spec : Session.spec) =
  if peers < 1 then invalid_arg "Churn.create: need >= 1 peer";
  let spec =
    match Session.validate spec with
    | Ok s -> s
    | Error msg -> invalid_arg ("Churn.create: " ^ msg)
  in
  let online =
    Array.init peers (fun _ ->
        Pdht_util.Rng.bernoulli rng ~p:spec.Session.initially_online_fraction)
  in
  make ~rng:(Some rng) ~online ~mean_uptime:spec.Session.mean_uptime
    ~mean_downtime:spec.Session.mean_downtime ~up_dist:spec.Session.up
    ~down_dist:spec.Session.down

let always_online ~peers =
  if peers < 1 then invalid_arg "Churn.always_online: need >= 1 peer";
  make ~rng:None ~online:(Array.make peers true) ~mean_uptime:1. ~mean_downtime:1.
    ~up_dist:Session.Exponential ~down_dist:Session.Exponential

let peers t = Array.length t.online
let online t p = t.online.(p)
let online_count t = t.online_count

let availability t =
  match t.rng with
  | None -> 1.
  | Some _ -> t.mean_uptime /. (t.mean_uptime +. t.mean_downtime)

let on_toggle t f =
  if t.callback_count = Array.length t.callbacks then begin
    let bigger = Array.make (max 4 (2 * t.callback_count)) f in
    Array.blit t.callbacks 0 bigger 0 t.callback_count;
    t.callbacks <- bigger
  end;
  t.callbacks.(t.callback_count) <- f;
  t.callback_count <- t.callback_count + 1

let session_changes t = t.session_changes

let toggle t peer time =
  let now_online = not t.online.(peer) in
  t.online.(peer) <- now_online;
  t.online_count <- t.online_count + (if now_online then 1 else -1);
  t.session_changes <- t.session_changes + 1;
  for i = 0 to t.callback_count - 1 do
    t.callbacks.(i) ~peer ~now_online ~time
  done

let instrument t (obs : Pdht_obs.Context.t) =
  let module R = Pdht_obs.Registry in
  let registry = obs.Pdht_obs.Context.registry in
  let tracer = obs.Pdht_obs.Context.tracer in
  let session_lengths = R.histogram registry "churn.session_length" in
  let transitions = R.counter registry "churn.transitions" in
  let online_gauge = R.gauge registry "churn.online_count" in
  R.set_gauge online_gauge (float_of_int t.online_count);
  (* Time of each peer's previous transition; the run starts at 0, so
     the first session of every peer is measured from there. *)
  let last_toggle = Array.make (peers t) 0. in
  on_toggle t (fun ~peer ~now_online ~time ->
      R.incr transitions 1;
      R.set_gauge online_gauge (float_of_int t.online_count);
      let session = time -. last_toggle.(peer) in
      last_toggle.(peer) <- time;
      if session >= 0. then Pdht_obs.Histogram.record session_lengths session;
      if Pdht_obs.Tracer.active tracer Pdht_obs.Event.Churn then
        Pdht_obs.Tracer.emit tracer
          (Pdht_obs.Event.make ~time ~peer
             ~detail:(if now_online then "online" else "offline")
             Pdht_obs.Event.Churn))

let attach t engine =
  match t.rng with
  | None -> ()
  | Some rng ->
      let next_duration peer =
        if t.online.(peer) then Session.draw rng t.up_dist ~mean:t.mean_uptime
        else Session.draw rng t.down_dist ~mean:t.mean_downtime
      in
      let rec schedule_toggle peer delay =
        Pdht_sim.Engine.schedule engine ~delay (fun eng ->
            toggle t peer (Pdht_sim.Engine.now eng);
            schedule_toggle peer (next_duration peer))
      in
      for peer = 0 to peers t - 1 do
        schedule_toggle peer (next_duration peer)
      done
