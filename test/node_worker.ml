(* Test helper: a real cluster worker.  Spawned by [Cluster.run] as
   [node_worker.exe node --connect PORT --node-id K], it serves the
   worker protocol with [Node.run], so cluster tests can drive the whole
   conductor-worker path without the CLI. *)

let () =
  let port = ref 0 and node_id = ref 0 and obs_out = ref None in
  Arg.parse
    [
      ("--connect", Arg.Set_int port, "conductor port");
      ("--node-id", Arg.Set_int node_id, "worker id");
      ("--obs-out", Arg.String (fun p -> obs_out := Some p), "node JSONL path");
    ]
    (fun _positional -> ())
    "node_worker";
  Pdht_proc.Node.run ?obs_out:!obs_out ~port:!port ~node_id:!node_id ()
