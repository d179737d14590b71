type update = { time : float; article_id : int }

type t = {
  rng : Pdht_util.Rng.t;
  articles : int;
  mean_lifetime : float;
  (* streaming state, as in {!Query_gen}: one pending event held flat *)
  pending_time : float array;
  mutable pending_article : int;
}

let create rng ~articles ~mean_lifetime =
  if articles < 1 then invalid_arg "Update_gen.create: need >= 1 article";
  if not (mean_lifetime > 0.) then invalid_arg "Update_gen.create: lifetime must be positive";
  { rng; articles; mean_lifetime; pending_time = Array.make 1 0.; pending_article = 0 }

let total_rate t = float_of_int t.articles /. t.mean_lifetime

let draw_pending t ~after =
  let gap = Pdht_util.Rng.exponential t.rng ~rate:(total_rate t) in
  t.pending_time.(0) <- after +. gap;
  t.pending_article <- Pdht_util.Rng.int t.rng t.articles

let next t ~after =
  draw_pending t ~after;
  { time = t.pending_time.(0); article_id = t.pending_article }

let stream t ~from ~until =
  let rec continue after () =
    let u = next t ~after in
    if u.time > until then Seq.Nil else Seq.Cons (u, continue u.time)
  in
  continue from

(* One re-scheduled closure; see {!Query_gen.attach}. *)
let attach t engine ~until ~handler =
  let rec fire eng =
    let time = t.pending_time.(0) in
    handler eng ~article_id:t.pending_article;
    advance time
  and advance after =
    draw_pending t ~after;
    if t.pending_time.(0) <= until then
      Pdht_sim.Engine.schedule_at engine ~time:t.pending_time.(0) fire
  in
  advance (Pdht_sim.Engine.now engine)
