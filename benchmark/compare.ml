(* Compare benchmark results of a parent commit and a change.

   compare.exe [--spec BENCHMARK.json] [--claim WORKLOAD:METRIC]
               PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

   Each file is a combined result written by main.exe.  Files come in
   (parent, change) pairs.  For every workload and end-to-end metric the
   verdict is better, same, worse, or unresolved (the spread exceeds the
   metric's bound), judged on the median over the given files.  A claim
   additionally needs at least 10 pairs: the change must win at least
   9/10 of them, and the medians must differ by more than the parent's
   IQR.  Exit status 1 when any metric is worse, a change fails more
   operations, or a claim is not met. *)

module Json = Pdht_obs.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("compare: " ^ m); exit 2) fmt

let read_json path =
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string (String.trim s) with Ok j -> j | Error e -> die "%s: %s" path e

let member path name j =
  match Json.member name j with Some v -> v | None -> die "%s: no %S" path name

let obj path = function Json.Obj fields -> fields | _ -> die "%s: expected an object" path

let float_of path j = match Json.to_float_opt j with Some f -> f | None -> die "%s: not a number" path

type bound = { metric : string; lower_better : bool; bound : float }

let spec_bounds path =
  let spec = read_json path in
  List.map
    (fun m ->
      {
        metric = (match Json.member "name" m with Some (Json.String s) -> s | _ -> die "%s: metric name" path);
        lower_better = Json.member "better" m = Some (Json.String "lower");
        bound = float_of path (member path "bound" m);
      })
    (match member path "end_to_end" spec with Json.List l -> l | _ -> die "%s: end_to_end" path)

(* One side's reading of a metric in one file. *)
type reading = { value : float; q1 : float; q3 : float; samples : float list }

let reading path ~workload ~metric result =
  let w = member path workload (member path "workloads" result) in
  let e2e = member path "end_to_end" w in
  match Json.member "metrics" e2e with
  | None -> None
  | Some ms -> (
      match Json.member metric ms with
      | None -> None
      | Some m ->
          let f name = float_of path (member path name m) in
          Some
            {
              value = f "value";
              q1 = f "q1";
              q3 = f "q3";
              samples =
                (match Json.member "samples" m with
                | Some (Json.List l) -> List.filter_map Json.to_float_opt l
                | _ -> []);
            })

let failed path ~workload result =
  let w = member path workload (member path "workloads" result) in
  List.fold_left
    (fun acc side ->
      match Option.bind (Json.member side w) (Json.member "failed") with
      | Some v -> acc + Option.value ~default:0 (Json.to_int_opt v)
      | None -> acc)
    0 [ "end_to_end"; "per_layer" ]

(* How much worse [c] is than [p], as a share of [p]; negative = better. *)
let worse_by b ~p ~c =
  if p = 0. then 0. else if b.lower_better then (c -. p) /. Float.abs p else (p -. c) /. Float.abs p

let better_than b x y = if b.lower_better then x < y else x > y

let verdict b ~parent ~change =
  let p = Stats.median (List.map (fun r -> r.value) parent)
  and c = Stats.median (List.map (fun r -> r.value) change) in
  let spread rs v =
    match rs with
    | [ r ] -> if v = 0. then 0. else (r.q3 -. r.q1) /. Float.abs v
    | _ -> Stats.spread (Stats.summarize (List.map (fun r -> r.value) rs))
  in
  let s = Float.max (spread parent p) (spread change c) in
  let d = worse_by b ~p ~c in
  let all_samples rs = List.concat_map (fun r -> if r.samples = [] then [ r.value ] else r.samples) rs in
  let verdict =
    if s > b.bound then
      (* Too noisy to call, unless every change run beats every parent run. *)
      let cs = all_samples change and ps = all_samples parent in
      if List.for_all (fun x -> List.for_all (fun y -> better_than b x y) ps) cs then "better"
      else "unresolved"
    else if d > b.bound then "worse"
    else if d < -.b.bound then "better"
    else "same"
  in
  (verdict, p, c, d, s)

(* The pair rule for a named claim. *)
let claim b ~parent ~change =
  let ps = List.map (fun r -> r.value) parent and cs = List.map (fun r -> r.value) change in
  let pairs = List.length ps in
  let wins = List.fold_left2 (fun n p c -> if better_than b c p then n + 1 else n) 0 ps cs in
  let p = Stats.summarize ps in
  let gap = Float.abs (Stats.median cs -. p.Stats.median) in
  let iqr = p.Stats.q3 -. p.Stats.q1 in
  let met = pairs >= 10 && 10 * wins >= 9 * pairs && gap > iqr in
  Printf.printf
    "claim %s: %s (pairs=%d, change wins %d, median gap %.6g vs parent IQR %.6g)\n" b.metric
    (if met then "MET" else "NOT MET") pairs wins gap iqr;
  if pairs < 10 then print_endline "  the pair rule needs at least 10 alternating pairs";
  met

let () =
  let spec = ref "BENCHMARK.json" and claims = ref [] and files = ref [] in
  let rec parse = function
    | "--spec" :: f :: rest -> spec := f; parse rest
    | "--claim" :: c :: rest -> (
        match String.split_on_char ':' c with
        | [ w; m ] -> claims := (w, m) :: !claims; parse rest
        | _ -> die "--claim takes WORKLOAD:METRIC")
    | f :: rest -> files := f :: !files; parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] || List.length files mod 2 = 1 then
    die "give PARENT.json CHANGE.json pairs (see the header of benchmark/compare.ml)";
  let bounds = spec_bounds !spec in
  let loaded = List.map (fun f -> (f, read_json f)) files in
  let parents = List.filteri (fun i _ -> i mod 2 = 0) loaded
  and changes = List.filteri (fun i _ -> i mod 2 = 1) loaded in
  let workloads =
    let path, first = List.hd loaded in
    List.map fst (obj path (member path "workloads" first))
  in
  let bad = ref false in
  Printf.printf "%-18s %-20s %-11s %14s %14s %9s %8s %6s\n" "workload" "metric" "verdict" "parent"
    "change" "worse_by" "spread" "bound";
  List.iter
    (fun workload ->
      List.iter
        (fun b ->
          let side rs =
            List.filter_map (fun (path, j) -> reading path ~workload ~metric:b.metric j) rs
          in
          match (side parents, side changes) with
          | [], _ | _, [] -> ()
          | parent, change ->
              let v, p, c, d, s = verdict b ~parent ~change in
              if v = "worse" then bad := true;
              Printf.printf "%-18s %-20s %-11s %14.6g %14.6g %+9.4f %8.4f %6.3f\n" workload
                b.metric v p c d s b.bound)
        bounds;
      let total rs = List.fold_left (fun acc (path, j) -> acc + failed path ~workload j) 0 rs in
      let fp = total parents and fc = total changes in
      if fc > fp then begin
        bad := true;
        Printf.printf "%-18s failed operations: parent %d, change %d (worse)\n" workload fp fc
      end)
    workloads;
  List.iter
    (fun (workload, metric) ->
      match List.find_opt (fun b -> b.metric = metric) bounds with
      | None -> die "no end-to-end metric %s in %s" metric !spec
      | Some b ->
          let side rs = List.filter_map (fun (path, j) -> reading path ~workload ~metric j) rs in
          if not (claim b ~parent:(side parents) ~change:(side changes)) then bad := true)
    (List.rev !claims);
  exit (if !bad then 1 else 0)
