(* Host clocks and process readings. *)

(* CLOCK_MONOTONIC in nanoseconds; unboxed, so a read allocates
   nothing and costs one vDSO call. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* CPUs this process may run on, read at start-up, before
   [pin_to_current_cpu] narrows them to one. *)
let cores = Domain.recommended_domain_count ()

(* Run this process, and every process it starts later, on the CPU it
   is on now; returns that CPU, or -1 when that failed.  The cluster's
   conductor and workers take turns, so on one CPU each hand-off is a
   local context switch rather than a wake-up of another virtual CPU,
   whose latency the hypervisor sets. *)
external pin_to_current_cpu : unit -> int = "bench_pin_to_current_cpu"
