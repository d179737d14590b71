type counter = { c_name : string; mutable c_value : int }
type gauge = { mutable g_value : float }

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of Histogram.t

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let kind_label = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

let wrong_kind name found wanted =
  invalid_arg
    (Printf.sprintf "Registry: %S is a %s, not a %s" name (kind_label found) wanted)

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (I_counter c) -> c
  | Some other -> wrong_kind name other "counter"
  | None ->
      let c = { c_name = name; c_value = 0 } in
      Hashtbl.replace t.table name (I_counter c);
      c

let incr c n =
  if n < 0 then invalid_arg (Printf.sprintf "Registry.incr %S: negative count" c.c_name);
  c.c_value <- c.c_value + n

let counter_value c = c.c_value

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (I_gauge g) -> g
  | Some other -> wrong_kind name other "gauge"
  | None ->
      let g = { g_value = 0. } in
      Hashtbl.replace t.table name (I_gauge g);
      g

let set_gauge g v = g.g_value <- v

let histogram ?gamma t name =
  match Hashtbl.find_opt t.table name with
  | Some (I_histogram h) -> h
  | Some other -> wrong_kind name other "histogram"
  | None ->
      let h = Histogram.create ?gamma () in
      Hashtbl.replace t.table name (I_histogram h);
      h

let find_histogram t name =
  match Hashtbl.find_opt t.table name with
  | Some (I_histogram h) -> Some h
  | Some _ | None -> None

let counter_value_by_name t name =
  match Hashtbl.find_opt t.table name with
  | Some (I_counter c) -> Some c.c_value
  | Some _ | None -> None

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.summary

type snapshot = (string * value) list

let read = function
  | I_counter c -> Counter_v c.c_value
  | I_gauge g -> Gauge_v g.g_value
  | I_histogram h -> Histogram_v (Histogram.summary h)

let snapshot t =
  Hashtbl.fold (fun name inst acc -> (name, read inst) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_into src ~into =
  if src.table == into.table then
    invalid_arg "Registry.merge_into: cannot merge a registry into itself";
  (* Name order makes the merge deterministic regardless of hash-table
     iteration order — parallel batches must fold to identical state. *)
  let instruments =
    Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) src.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, inst) ->
      match inst with
      | I_counter c -> incr (counter into name) c.c_value
      | I_gauge g -> set_gauge (gauge into name) g.g_value
      | I_histogram h ->
          Histogram.merge ~into:(histogram ~gamma:(Histogram.gamma h) into name) h)
    instruments

let fold t ~init ~f =
  List.fold_left (fun acc (name, value) -> f acc name value) init (snapshot t)
