(* Export reachability: every value a library interface exports must be
   referenced by another compilation unit outside the tests and
   examples, or be listed in an allowlist with a reason.

   Usage: reach.exe [--allow FILE] BUILD_DIR

   BUILD_DIR is dune's build context (normally _build/default), after
   [dune build @check] so that the executables' .cmt files exist too.
   The exported values are the [val]s (submodules included) of every
   .cmti under BUILD_DIR/lib; the references are the identifiers of
   every .cmt under BUILD_DIR/{lib,bin,bench,benchmark,tools}.  Each
   allowlist line is "Library.Module.value reason"; blank lines and
   lines starting with '#' are skipped.  The exit code is 1 when an
   exported value is unreached and unlisted, or when a listed value is
   missing, reached, listed twice or has no reason.

   A reference is matched to an export by the value's uid.  In OCaml
   5.1 an interface and its implementation number their uids in one
   space under one compilation unit name, so identifiers found in a
   unit's own .cmt are skipped: that unit's internal uses would
   otherwise mark unrelated exports as reached. *)

module Uid = Shape.Uid

let rec files_under dir ext acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then files_under p ext acc
          else if Filename.check_suffix p ext then p :: acc
          else acc)
        acc entries

(* "Pdht_obs__Context" -> "Pdht_obs.Context" *)
let display_unit modname =
  let n = String.length modname in
  let b = Buffer.create n in
  let rec go i =
    if i + 1 < n && modname.[i] = '_' && modname.[i + 1] = '_' then begin
      Buffer.add_char b '.';
      go (i + 2)
    end
    else if i < n then begin
      Buffer.add_char b modname.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* Exported values of one interface: (display name, uid). *)
let exports_of_cmti file =
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots with
  | Cmt_format.Interface sg ->
      let rec walk prefix (sg : Typedtree.signature) acc =
        List.fold_left
          (fun acc (item : Typedtree.signature_item) ->
            match item.sig_desc with
            | Tsig_value vd ->
                (prefix ^ "." ^ vd.val_name.txt, vd.val_val.val_uid) :: acc
            | Tsig_module
                { md_name = { txt = Some name; _ };
                  md_type = { mty_desc = Tmty_signature sub; _ }; _ } ->
                walk (prefix ^ "." ^ name) sub acc
            | _ -> acc)
          acc sg.sig_items
      in
      walk (display_unit cmt.cmt_modname) sg []
  | _ -> []

(* Uids of values referenced by one implementation, other than its own. *)
let references_of_cmt file reached =
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots with
  | Cmt_format.Implementation str ->
      let own = cmt.cmt_modname in
      let expr (it : Tast_iterator.iterator) (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) -> (
            match vd.val_uid with
            | Uid.Item { comp_unit; _ } when comp_unit <> own ->
                Uid.Tbl.replace reached vd.val_uid ()
            | _ -> ())
        | _ -> ());
        Tast_iterator.default_iterator.expr it e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it str
  | _ -> ()

let read_allowlist file =
  let ic = open_in file in
  let rec loop lineno acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (lineno + 1) acc
        else
          let name, reason =
            match String.index_opt line ' ' with
            | None -> (line, "")
            | Some i ->
                ( String.sub line 0 i,
                  String.trim (String.sub line i (String.length line - i)) )
          in
          loop (lineno + 1) ((lineno, name, reason) :: acc)
  in
  loop 1 []

let () =
  let allow = ref None and build = ref None in
  Arg.parse
    [ ("--allow", Arg.String (fun f -> allow := Some f), "FILE allowlist") ]
    (fun d -> build := Some d)
    "reach.exe [--allow FILE] BUILD_DIR";
  let build =
    match !build with
    | Some d -> d
    | None ->
        prerr_endline "reach: BUILD_DIR required";
        exit 2
  in
  let exports =
    files_under (Filename.concat build "lib") ".cmti" []
    |> List.concat_map exports_of_cmti
    |> List.sort compare
  in
  let reached = Uid.Tbl.create 4096 in
  List.iter
    (fun d ->
      files_under (Filename.concat build d) ".cmt" []
      |> List.iter (fun f -> references_of_cmt f reached))
    [ "lib"; "bin"; "bench"; "benchmark"; "tools" ];
  let allowed =
    match !allow with None -> [] | Some f -> read_allowlist f
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf (fmt ^^ "\n")
  in
  let exported = Hashtbl.create 1024 in
  List.iter (fun (name, uid) -> Hashtbl.replace exported name uid) exports;
  let listed = Hashtbl.create 256 in
  List.iter
    (fun (lineno, name, reason) ->
      if Hashtbl.mem listed name then
        fail "allowlist line %d: %s is listed twice" lineno name;
      Hashtbl.replace listed name ();
      if reason = "" then fail "allowlist line %d: %s has no reason" lineno name;
      match Hashtbl.find_opt exported name with
      | None -> fail "allowlist line %d: %s is not an exported value" lineno name
      | Some uid when Uid.Tbl.mem reached uid ->
          fail "allowlist line %d: %s is reached; drop it from the list" lineno
            name
      | Some _ -> ())
    allowed;
  let unreached =
    List.filter (fun (_, uid) -> not (Uid.Tbl.mem reached uid)) exports
  in
  List.iter
    (fun (name, _) ->
      if not (Hashtbl.mem listed name) then fail "unreached export: %s" name)
    unreached;
  Printf.printf "reach: %d exported values, %d unreached, %d allowlisted\n"
    (List.length exports) (List.length unreached) (List.length allowed);
  if !failures > 0 then exit 1
