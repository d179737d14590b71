(* Byte-for-byte comparison of a rendering against a committed file in
   test/golden/.  Regenerate a golden only when a change deliberately
   alters observable behaviour. *)

(* Under [dune runtest] the cwd is the test directory (the golden files
   arrive via the dune deps glob); a bare [dune exec test/<name>.exe]
   runs from the project root. *)
let path name =
  let local = Filename.concat "golden" name in
  if Sys.file_exists local then local else Filename.concat "test/golden" name

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check name current =
  let path = path name in
  let golden = read_file path in
  if not (String.equal golden current) then (
    (* A full diff of two ~200-line reports is unreadable in a test
       failure; point at the first divergent line instead. *)
    let gl = String.split_on_char '\n' golden in
    let cl = String.split_on_char '\n' current in
    let rec first_diff i = function
      | g :: gs, c :: cs -> if String.equal g c then first_diff (i + 1) (gs, cs) else Some (i, g, c)
      | [], [] -> None
      | g :: _, [] -> Some (i, g, "<missing>")
      | [], c :: _ -> Some (i, "<missing>", c)
    in
    match first_diff 1 (gl, cl) with
    | None -> Alcotest.fail "length mismatch"
    | Some (line, g, c) ->
        Alcotest.failf "rendering diverges from %s at line %d:\n  golden:  %s\n  current: %s"
          path line g c)
