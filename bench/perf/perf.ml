(* The end-to-end benchmark of REVERE's peer data management system.
   See README.md in this directory for the workloads and metrics. *)

let usage =
  {|usage: perf.exe COMMAND
  --workload WORKLOAD [--seed N] [--seconds S] [--trace 0|1]
      one workload in this process; the last line of output is JSON
  all [--seed N] [--seconds S] [--trace 0|1]
      every workload, each in its own process
  smoke
      toy sizes of every workload, output checks only
  record FILE [--runs N] [--seed N] [--seconds S] [--set LABEL] [WORKLOAD...]
      append N runs per workload (seeds N, N+1, ...) to a run set file
  compare A.json [B.json]
      medians, quartiles, BENCHMARK.json's bound and a verdict per metric
      and workload
workloads: |}
  ^ String.concat " " (List.map (fun s -> s.World.name) World.all)

(* Transcript digests of the verified prefix, per workload and seed. A
   change that alters any answer, hit, score bit or catalog rendering
   changes them. *)
let recorded =
  [ ("answer_mesh", 1, "6e1b78efc8cb80652373d6cb4f816b95");
    ("answer_bulk", 1, "e0507f5301c97acab2fa03646f1a624a");
    ("search_warm", 1, "8d7349d50a3ccb9b5e90efcf4b2715f1");
    ("live_mixed", 1, "e8db0d06eac540c03889b57b2f15d46f");
    ("smoke/answer_mesh", 1, "ce90372266fa0d85f7a0a648b68d032d");
    ("smoke/answer_bulk", 1, "a3f186deb5cca9d46a14c59ceadd4765");
    ("smoke/search_warm", 1, "faafb2be1accce0c117dd008d95aa960");
    ("smoke/live_mixed", 1, "b7c2006734d1387b332b5428095ebde7") ]

(* Compare against the recorded digest; a mismatch fails the run. *)
let check_digest ~key ~seed (r : Run.report) =
  let expected =
    List.find_map
      (fun (k, s, d) -> if k = key && s = seed then Some d else None)
      recorded
  in
  let status, r =
    match expected with
    | None -> ("not recorded", r)
    | Some d when d = r.Run.digest -> ("matches recorded", r)
    | Some d ->
        ( "MISMATCH, recorded " ^ d,
          { r with Run.correct = false; problems = r.Run.problems @ [ "digest mismatch" ] } )
  in
  Printf.printf "digest %s seed=%d %s %s\n" key seed r.Run.digest status;
  r

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

(* Split arguments into [--name value] flags and positional words. *)
let rec flags = function
  | [] -> ([], [])
  | k :: rest when String.starts_with ~prefix:"--" k -> (
      match rest with
      | v :: rest ->
          let fl, pos = flags rest in
          ((String.sub k 2 (String.length k - 2), v) :: fl, pos)
      | [] -> die ("missing value for " ^ k))
  | x :: rest ->
      let fl, pos = flags rest in
      (fl, x :: pos)

let int_flag fl k default =
  match List.assoc_opt k fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die ("bad --" ^ k))

let spec_of name =
  match World.find name with Some s -> s | None -> die ("unknown workload " ^ name)

let run_one fl name =
  let spec = spec_of name in
  let seed = int_flag fl "seed" 1 in
  let seconds = float_of_int (int_flag fl "seconds" 20) in
  let trace = int_flag fl "trace" 0 = 1 in
  Printf.printf "# %s seed=%d seconds=%g trace=%b: %s\n%!" name seed seconds trace
    spec.World.why;
  let r = Run.run ~seconds ~trace ~seed spec in
  let r = check_digest ~key:name ~seed r in
  Run.print r;
  print_endline (Run.json_line r);
  exit (if r.Run.correct then 0 else 1)

(* Run [args] of this executable as a child; returns its exit code and
   its standard output, which is echoed as it arrives. *)
let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       lines := line :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 255
  in
  (code, List.rev !lines)

let child_flags fl keys =
  List.concat_map
    (fun k -> match List.assoc_opt k fl with Some v -> [ "--" ^ k; v ] | None -> [])
    keys

let all fl =
  let codes =
    List.map
      (fun (s : World.spec) ->
        fst
          (child
             ([ "--workload"; s.World.name ] @ child_flags fl [ "seed"; "seconds"; "trace" ])))
      World.all
  in
  exit (if List.for_all (( = ) 0) codes then 0 else 1)

let smoke () =
  let ok =
    List.map
      (fun (spec : World.spec) ->
        let r = Run.run ~ops:24 ~seconds:0. ~trace:true ~seed:1 spec in
        let r = check_digest ~key:("smoke/" ^ spec.World.name) ~seed:1 r in
        List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) r.Run.problems;
        List.iter (fun e -> Printf.printf "op failed: %s\n" e) r.Run.errors;
        Printf.printf "smoke %s: %d ops, %d failed, %s\n%!" spec.World.name r.Run.attempted
          r.Run.failed
          (if r.Run.correct then "outputs correct" else "OUTPUTS WRONG");
        r.Run.correct && r.Run.failed = 0)
      World.smoke
    |> List.for_all Fun.id
  in
  exit (if ok then 0 else 1)

let record fl pos =
  match pos with
  | [] -> die "record needs a file"
  | file :: names ->
      let names = if names = [] then List.map (fun s -> s.World.name) World.all else names in
      List.iter (fun n -> ignore (spec_of n)) names;
      let runs = int_flag fl "runs" 5 and seed = int_flag fl "seed" 1 in
      let set = Option.value ~default:"a" (List.assoc_opt "set" fl) in
      let recorded = ref (Compare.load file) in
      let ok = ref true in
      List.iter
        (fun name ->
          for s = seed to seed + runs - 1 do
            let code, lines =
              child
                ([ "--workload"; name; "--seed"; string_of_int s ] @ child_flags fl [ "seconds" ])
            in
            let digest =
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | "digest" :: _ :: _ :: d :: _ -> Some d
                  | _ -> None)
                lines
            in
            match (code, List.rev lines, digest) with
            | 0, last :: _, Some digest ->
                let metrics =
                  match Json.member "metrics" (Json.parse last) with
                  | Some (Json.Obj kvs) ->
                      List.filter_map
                        (fun (k, v) ->
                          Option.map (fun f -> (k, f)) (Option.bind (Json.member "value" v) Json.to_num))
                        kvs
                  | _ -> []
                in
                recorded :=
                  !recorded @ [ { Compare.workload = name; set; seed = s; digest; metrics } ];
                Compare.save file !recorded
            | _ ->
                ok := false;
                Printf.printf "record: %s seed %d failed (exit %d)\n%!" name s code
          done)
        names;
      exit (if !ok then 0 else 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let fl, pos = flags args in
  match pos with
  | [] when List.mem_assoc "workload" fl -> run_one fl (List.assoc "workload" fl)
  | [ "all" ] -> all fl
  | [ "smoke" ] -> smoke ()
  | "record" :: rest -> record fl rest
  | "compare" :: files -> exit (if Compare.compare ~bounds:"BENCHMARK.json" files then 0 else 1)
  | [ "help" ] ->
      print_endline usage
  | _ -> die "unknown command"
