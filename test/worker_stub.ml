(* What the misbehaving test workers share: the command line
   [Cluster.run] spawns a worker with, and the connection to the
   conductor, opened as [Node.run] opens it and greeted with [Hello]. *)

let connect name =
  let port = ref 0 and node_id = ref 0 in
  Arg.parse
    [
      ("--connect", Arg.Set_int port, "conductor port");
      ("--node-id", Arg.Set_int node_id, "worker id");
      ("--obs-out", Arg.String (fun _ -> ()), "ignored");
    ]
    (fun _positional -> ())
    name;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, !port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let conn = Pdht_proc.Frame_io.of_fd fd in
  Pdht_proc.Frame_io.post conn (Pdht_wire.Wire.Hello { node_id = !node_id });
  (conn, !node_id)
