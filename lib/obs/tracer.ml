type t = {
  mutable enabled : bool;
  mutable filter : Event.category list option;
  mutable sinks : Sink.t list; (* registration order *)
  mutable emitted : int;
  mutable sample_every : int;
  mutable sampled_ops : int; (* root-span requests seen while active *)
  spans : Span.allocator;
  mutable flushers : (unit -> unit) list; (* registration order *)
}

let create ?(enabled = false) () =
  {
    enabled;
    filter = None;
    sinks = [];
    emitted = 0;
    sample_every = 1;
    sampled_ops = 0;
    spans = Span.allocator ();
    flushers = [];
  }

let enable t = t.enabled <- true
let enabled t = t.enabled
let set_filter t f = t.filter <- f
let add_sink t sink = t.sinks <- t.sinks @ [ sink ]

let passes t category =
  match t.filter with None -> true | Some cats -> List.memq category cats

let active t category = t.enabled && t.sinks <> [] && passes t category

let emit t (e : Event.t) =
  if active t e.Event.category then begin
    t.emitted <- t.emitted + 1;
    List.iter (fun sink -> sink e) t.sinks
  end

let events_emitted t = t.emitted

(* -- spans and sampling -------------------------------------------- *)

let set_sampling t every =
  if every < 1 then invalid_arg "Tracer.set_sampling: every must be >= 1";
  t.sample_every <- every

let tracing t = t.enabled && t.sinks <> []

let sample_root t =
  if not (tracing t) then None
  else begin
    let n = t.sampled_ops in
    t.sampled_ops <- n + 1;
    if n mod t.sample_every = 0 then Some (Span.root t.spans) else None
  end

let root_span t = if tracing t then Some (Span.root t.spans) else None
let child_span t ~parent = Span.issue t.spans ~parent

(* -- flushers ------------------------------------------------------ *)

let add_flusher t f = t.flushers <- t.flushers @ [ f ]
let has_flushers t = t.flushers <> []
let flush t = List.iter (fun f -> f ()) t.flushers
