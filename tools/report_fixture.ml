(* Regenerates the behaviour-pinning golden files:

     dune exec tools/report_fixture.exe > test/golden/representation_reports.txt
     dune exec tools/report_fixture.exe -- setup-state > test/golden/setup_state.txt

   Run it only when a PR deliberately changes observable behaviour;
   purely representational PRs must leave the output byte-identical
   (test_scale diffs both renderings against the committed files). *)
let () =
  match Array.to_list Sys.argv |> List.tl with
  | [] ->
      print_string
        (Pdht_core.Experiment.render_reports
           (Pdht_core.Experiment.representation_battery ~jobs:1 ()))
  | [ "setup-state" ] -> print_string (Pdht_core.Experiment.render_setup_state ())
  | _ ->
      prerr_endline "usage: report_fixture [setup-state]";
      exit 2
