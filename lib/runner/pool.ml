let hardware_jobs () = Stdlib.max 1 (Domain.recommended_domain_count ())
let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let try_map ?jobs ~f tasks =
  let n = Array.length tasks in
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.try_map: jobs must be >= 1";
  let run i = try Ok (f i tasks.(i)) with exn -> Error exn in
  (* Parallelism only pays when the batch has at least two tasks and the
     hardware has cores to run them on.  Oversubscribing domains past the
     physical core count is strictly worse than sequential in OCaml 5:
     every minor GC is a stop-the-world barrier across all domains, so
     descheduled domains stall the running one.  The caller's [jobs] is a
     ceiling, not a promise. *)
  let workers = Stdlib.min (Stdlib.min jobs n) (hardware_jobs ()) in
  if workers <= 1 then Array.init n run
  else begin
    (* Work-stealing by atomic counter: workers grab the next unclaimed
       index until the batch is drained.  The [Atomic.get] pre-check
       bounds the counter at [n + workers]: each worker overshoots at
       most once, instead of spinning the counter arbitrarily far past
       the batch end. *)
    let next = Atomic.make 0 in
    (* Each worker accumulates [(index, outcome)] pairs into its own
       freshly-allocated list, in its own minor heap.  Workers share
       nothing but the claim counter while running — no false sharing on
       a common results array — and the coordinator merges the buffers
       after the joins, when there is no concurrency left. *)
    let worker () =
      let rec loop acc =
        if Atomic.get next >= n then acc
        else
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then acc else loop ((i, run i) :: acc)
      in
      loop []
    in
    (* The calling domain is worker zero: spawn only [workers - 1]
       domains and do a full share of the batch here instead of blocking
       in [join] while others work. *)
    let domains = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    let own = worker () in
    let results = Array.make n None in
    let merge buf = List.iter (fun (i, outcome) -> results.(i) <- Some outcome) buf in
    merge own;
    Array.iter (fun d -> merge (Domain.join d)) domains;
    Array.map
      (function
        | Some outcome -> outcome
        | None -> assert false (* every index below [n] was claimed *))
      results
  end

let map_list ?jobs ~f tasks =
  try_map ?jobs ~f (Array.of_list tasks)
  |> Array.map (function Ok v -> v | Error exn -> raise exn)
  |> Array.to_list
