type window = { index : int; t0 : float; t1 : float; values : float array }

type summary = { width : float; series : string list; windows : window list }

type t = {
  width : float;
  series : string array;
  cells : (int, float array) Hashtbl.t; (* window index -> per-series values *)
}

let create ~width ~series =
  if not (width > 0.) then invalid_arg "Timeline.create: width must be > 0";
  if series = [] then invalid_arg "Timeline.create: no series";
  let arr = Array.of_list series in
  Array.iteri
    (fun i name ->
      for j = 0 to i - 1 do
        if arr.(j) = name then
          invalid_arg ("Timeline.create: duplicate series " ^ name)
      done)
    arr;
  { width; series = arr; cells = Hashtbl.create 64 }

let series_id t name =
  let rec find i =
    if i >= Array.length t.series then
      invalid_arg ("Timeline.series_id: unknown series " ^ name)
    else if t.series.(i) = name then i
    else find (i + 1)
  in
  find 0

let cell t ~now =
  let k = int_of_float (Float.floor (now /. t.width)) in
  let k = if k < 0 then 0 else k in
  match Hashtbl.find_opt t.cells k with
  | Some v -> v
  | None ->
      let v = Array.make (Array.length t.series) 0. in
      Hashtbl.add t.cells k v;
      v

let add t ~now id v =
  let c = cell t ~now in
  c.(id) <- c.(id) +. v

let set t ~now id v =
  let c = cell t ~now in
  c.(id) <- v

let summary t =
  let windows =
    Hashtbl.fold
      (fun k v acc ->
        { index = k; t0 = float_of_int k *. t.width;
          t1 = float_of_int (k + 1) *. t.width; values = Array.copy v }
        :: acc)
      t.cells []
  in
  {
    width = t.width;
    series = Array.to_list t.series;
    windows = List.sort (fun a b -> compare a.index b.index) windows;
  }

(* JSONL: one object per window, keyed "tl"/"t0"/"t1" plus one numeric
   member per series.  Integral values print as ints to keep lines
   small and stable. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let window_json (s : summary) w =
  Json.Obj
    ([ ("tl", Json.Int w.index); ("t0", num w.t0); ("t1", num w.t1) ]
    @ List.mapi (fun i name -> (name, num w.values.(i))) s.series)

let write_jsonl channel s =
  List.iter
    (fun w ->
      output_string channel (Json.to_string (window_json s w));
      output_char channel '\n')
    s.windows

let pp ppf (s : summary) =
  Format.fprintf ppf "timeline: windows=%d width=%gs series=%s"
    (List.length s.windows) s.width
    (String.concat "," s.series)
