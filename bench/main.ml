(* Benchmark harness entry point.

   dune exec bench/main.exe              -- run every experiment (E1-E20)
   dune exec bench/main.exe -- e4 e5     -- run a subset
   dune exec bench/main.exe -- smoke     -- tiny smoke run (@bench-smoke)
   dune exec bench/main.exe -- bechamel  -- Bechamel micro-benchmarks
   dune exec bench/main.exe -- all       -- experiments + micro-benchmarks *)

let usage () =
  Printf.printf "usage: bench/main.exe [e1..e20|smoke|bechamel|all]...\n";
  Printf.printf "available experiments: %s\n"
    (String.concat " " (List.map fst Experiments.all))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Printf.printf
    "REVERE benchmark harness — reproduces the evaluation of\n\
     \"Crossing the Structure Chasm\" (CIDR 2003). See DESIGN.md for the\n\
     per-experiment index and EXPERIMENTS.md for recorded results.\n";
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) Experiments.all
  | [ "all" ] ->
      List.iter (fun (_, f) -> f ()) Experiments.all;
      Micro.run ()
  | [ "smoke" ] -> Experiments.smoke ()
  | [ "bechamel" ] -> Micro.run ()
  | [ "help" ] | [ "--help" ] -> usage ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt (String.lowercase_ascii id) Experiments.all with
          | Some f -> f ()
          | None ->
              Printf.printf "unknown experiment %S\n" id;
              usage ();
              exit 1)
        ids
