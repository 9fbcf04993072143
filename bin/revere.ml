(* The `revere` command-line tool: poke at the library from a shell.

     revere demo                          the DElearning walkthrough
     revere match A.schema B.schema       corpus-assisted schema matching
     revere advise PARTIAL.schema S...    DesignAdvisor ranking
     revere critique DRAFT.schema S...    decomposition advice
     revere stats TERM S...               corpus statistics for a term
     revere query 'q(X) :- r(X, Y)'       parse + inspect a CQ
     revere stem WORD...                  Porter-stem words
     revere gen-pdms                      emit the six-university PDMS
     revere answer FILE QUERY             reformulate + evaluate a CQ
     revere search FILE WORD...           TF/IDF keyword search
     revere distributed FILE QUERY --at P peer-based execution plan

   The last three share the execution-context flags: -j/--jobs plus the
   on/off pairs --[no-]pruning, --[no-]trace and --[no-]metrics (see
   [exec_term] below). Schema files use the format of
   Corpus.Schema_parser. *)

open Cmdliner

(* Every file argument is read here, so an unreadable one (missing, a
   directory, no permission) is one line and exit 1 for every command.
   [Sys_error] messages may already lead with the path; it is said once. *)
let read_file path =
  let fail msg =
    let prefix = path ^ ": " in
    prerr_endline
      ("error: " ^ if String.starts_with ~prefix msg then msg else prefix ^ msg);
    exit 1
  in
  try
    if Sys.is_directory path then fail "Is a directory";
    In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> fail msg

let load_schema path =
  match Corpus.Schema_parser.parse (read_file path) with
  | Ok s -> s
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 1

let load_corpus paths =
  let corpus = Corpus.Corpus_store.create () in
  List.iter (fun p -> Corpus.Corpus_store.add_schema corpus (load_schema p)) paths;
  corpus

(* ------------------------------------------------------------------ *)

let demo () =
  let prng = Util.Prng.create 2003 in
  let scenario = Core.Delearning.build prng ~courses_per_peer:3 in
  let d = scenario.Core.Delearning.delearning in
  Printf.printf "DElearning coalition: %s\n"
    (String.concat ", " (List.map fst d.Workload.University.peers));
  Printf.printf "mappings: %d (linear in peers)\n"
    (Pdms.Catalog.mapping_count d.Workload.University.catalog);
  let visible = Core.Delearning.courses_visible_at scenario "roma" in
  Printf.printf "courses visible from roma: %d\n" (List.length visible);
  List.iteri (fun i t -> if i < 5 then Printf.printf "  %s\n" t) visible;
  let report =
    Core.Delearning.join_university scenario prng ~name:"trento" ~rel:"corso"
      ~attrs:[ "titolo"; "iscritti" ] ~courses:4
  in
  Printf.printf "trento joined via %s; correspondences: %s\n"
    report.Core.Delearning.mapped_to
    (String.concat ", "
       (List.map
          (fun (a, b) -> a ^ "<->" ^ b)
          report.Core.Delearning.correspondences));
  Printf.printf "courses visible from trento: %d\n"
    (List.length (Core.Delearning.courses_visible_at scenario "trento"))

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"Run the DElearning scenario end to end")
    Term.(const demo $ const ())

(* ------------------------------------------------------------------ *)

let match_schemas a b corpus_paths =
  let s1 = load_schema a and s2 = load_schema b in
  let corpus =
    if corpus_paths = [] then begin
      (* Default corpus: seeded university variants. *)
      let prng = Util.Prng.create 7 in
      Workload.University.corpus_of_variants prng ~n:8 ~level:0.3
    end
    else load_corpus corpus_paths
  in
  let matcher = Matching.Corpus_matcher.build corpus in
  let pairs = Matching.Corpus_matcher.match_schemas matcher s1 s2 in
  if pairs = [] then print_endline "no correspondences proposed"
  else
    List.iter
      (fun (c1, c2, score) ->
        Printf.printf "%-30s <-> %-30s %.3f\n"
          (c1.Matching.Column.rel ^ "." ^ c1.Matching.Column.attr)
          (c2.Matching.Column.rel ^ "." ^ c2.Matching.Column.attr)
          score)
      pairs

let schema_arg n doc = Arg.(required & pos n (some file) None & info [] ~docv:"SCHEMA" ~doc)

let corpus_arg =
  Arg.(value & opt_all file [] & info [ "c"; "corpus" ] ~docv:"SCHEMA"
         ~doc:"Corpus schema file (repeatable); default: built-in university corpus")

let match_cmd =
  Cmd.v
    (Cmd.info "match" ~doc:"Propose correspondences between two schema files")
    Term.(
      const match_schemas
      $ schema_arg 0 "first schema file"
      $ schema_arg 1 "second schema file"
      $ corpus_arg)

(* ------------------------------------------------------------------ *)

let advise partial_path corpus_paths =
  let partial = load_schema partial_path in
  let corpus =
    if corpus_paths = [] then
      Workload.University.corpus_of_variants (Util.Prng.create 7) ~n:8 ~level:0.3
    else load_corpus corpus_paths
  in
  let advisor = Advisor.Design_advisor.build corpus in
  let suggestions = Advisor.Design_advisor.rank advisor ~partial in
  if suggestions = [] then print_endline "no suggestions"
  else
    List.iter
      (fun (s : Advisor.Design_advisor.suggestion) ->
        Printf.printf "%-20s score %.3f  matched %d  proposes %d elements\n"
          s.Advisor.Design_advisor.candidate.Corpus.Schema_model.schema_name
          s.Advisor.Design_advisor.score
          (List.length s.Advisor.Design_advisor.matched)
          (List.length s.Advisor.Design_advisor.missing);
        List.iteri
          (fun i (rel, attr) ->
            if i < 8 then Printf.printf "    + %s.%s\n" rel attr)
          s.Advisor.Design_advisor.missing)
      suggestions

let advise_cmd =
  Cmd.v (Cmd.info "advise" ~doc:"Rank corpus schemas against a partial schema")
    Term.(const advise $ schema_arg 0 "partial schema file" $ corpus_arg)

(* ------------------------------------------------------------------ *)

let critique draft_path corpus_paths =
  let draft = load_schema draft_path in
  let corpus =
    if corpus_paths = [] then
      Workload.University.corpus_of_variants (Util.Prng.create 7) ~n:8 ~level:0.3
    else load_corpus corpus_paths
  in
  let stats = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Raw corpus in
  match Advisor.Critique.decompositions ~stats ~corpus draft with
  | [] -> print_endline "no decomposition advice: the design conforms to the corpus"
  | advices ->
      List.iter
        (fun (a : Advisor.Critique.advice) ->
          Printf.printf
            "relation '%s': move {%s} into a separate relation%s (confidence %.2f)\n"
            a.Advisor.Critique.relation
            (String.concat ", " a.Advisor.Critique.move_out)
            (match a.Advisor.Critique.suggested_relation with
            | Some r -> " such as '" ^ r ^ "'"
            | None -> "")
            a.Advisor.Critique.confidence)
        advices

let critique_cmd =
  Cmd.v (Cmd.info "critique" ~doc:"Corpus-based decomposition advice for a draft schema")
    Term.(const critique $ schema_arg 0 "draft schema file" $ corpus_arg)

(* ------------------------------------------------------------------ *)

let stats_term term corpus_paths =
  let corpus =
    if corpus_paths = [] then
      Workload.University.corpus_of_variants (Util.Prng.create 7) ~n:10 ~level:0.3
    else load_corpus corpus_paths
  in
  let stats = Corpus.Basic_stats.build corpus in
  let u = Corpus.Basic_stats.term_usage stats term in
  Printf.printf "term %S (normalised: %s) over %d schemas\n" term
    (Corpus.Basic_stats.normalize stats term)
    (Corpus.Corpus_store.size corpus);
  Printf.printf "  as relation name : %.0f%%\n" (100.0 *. u.Corpus.Basic_stats.as_relation);
  Printf.printf "  as attribute     : %.0f%%\n" (100.0 *. u.Corpus.Basic_stats.as_attribute);
  Printf.printf "  in data          : %.0f%%\n" (100.0 *. u.Corpus.Basic_stats.in_data);
  (match Corpus.Basic_stats.cooccurring_attrs stats term with
  | [] -> ()
  | co ->
      Printf.printf "  co-occurs with   : %s\n"
        (String.concat ", "
           (List.filteri (fun i _ -> i < 6) (List.map fst co))));
  match Corpus.Similar_names.most_similar ~limit:5 stats term with
  | [] -> ()
  | sims ->
      Printf.printf "  similar names    : %s\n"
        (String.concat ", "
           (List.map (fun (t, s) -> Printf.sprintf "%s(%.2f)" t s) sims))

let term_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"TERM" ~doc:"term to look up")

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Corpus statistics for a term")
    Term.(const stats_term $ term_arg $ corpus_arg)

(* ------------------------------------------------------------------ *)

let query_inspect text =
  match Cq.Parser.parse_query text with
  | Error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      exit 1
  | Ok q ->
      Printf.printf "parsed : %s\n" (Cq.Query.to_string q);
      Printf.printf "safe   : %b\n" (Cq.Query.is_safe q);
      Printf.printf "vars   : %s\n" (String.concat ", " (Cq.Query.vars q));
      Printf.printf "distinguished: %s\n"
        (String.concat ", " (Cq.Query.head_vars q));
      Printf.printf "existential  : %s\n"
        (String.concat ", " (Cq.Query.existential_vars q));
      let m = Cq.Minimize.minimize q in
      if Cq.Query.size m < Cq.Query.size q then
        Printf.printf "minimized    : %s\n" (Cq.Query.to_string m)
      else Printf.printf "already minimal\n"

let query_cmd =
  Cmd.v (Cmd.info "query" ~doc:"Parse and inspect a conjunctive query")
    Term.(
      const query_inspect
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"QUERY" ~doc:"e.g. 'q(X) :- r(X, Y)'"))

(* ------------------------------------------------------------------ *)

let load_pdms path =
  match Pdms.Pdms_file.parse (read_file path) with
  | Ok catalog -> catalog
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 1

(* Execution-context flags shared verbatim by `answer`, `search` and
   `distributed`: parsed once into a [Pdms.Exec.t] plus the two output
   switches. Every boolean switch is a [--FLAG]/[--no-FLAG] pair built
   by one helper, so each command documents both directions and scripts
   can always force a known state regardless of the default. Spans and
   metrics go to stderr so stdout stays pipeable. *)

type cli_exec = {
  exec : Pdms.Exec.t;
  sink : Obs.Sink.t option;  (* Some when --trace *)
  show_metrics : bool;
}

(* The commands don't link every delta consumer (Updategram, Cache,
   Propagate), so pre-register their counters by name — the registry is
   idempotent — and every --metrics report shows the full pdms.delta.*
   and pdms.wal.* families, at zero when unused. *)
let () =
  List.iter
    (fun n -> ignore (Obs.Metrics.counter ("pdms.delta." ^ n)))
    [ "applied"; "cache_kept"; "replicas_converged" ];
  List.iter
    (fun n -> ignore (Obs.Metrics.counter ("pdms.wal." ^ n)))
    [ "appends"; "bytes"; "fsyncs"; "replayed"; "torn_tail_drops"; "snapshots" ]

(* One on/off switch rendered as the flag pair [--name] / [--no-name];
   [default] applies when neither is given, the last one given wins. *)
let onoff name ~default ~on ~off =
  let on = if default then on ^ " This is the default." else on in
  let off = if default then off else off ^ " This is the default." in
  Arg.(
    value
    & vflag default
        [
          (true, info [ name ] ~doc:on);
          (false, info [ "no-" ^ name ] ~doc:off);
        ])

let make_cli_exec jobs pruning trace metrics =
  let pruning =
    if pruning then Pdms.Exec.default_pruning else Pdms.Exec.no_pruning
  in
  let sink = if trace then Some (Obs.Sink.memory ()) else None in
  let trace_t =
    match sink with Some s -> Obs.Trace.create s | None -> Obs.Trace.null
  in
  {
    exec = Pdms.Exec.make ~jobs ~pruning ~trace:trace_t ();
    sink;
    show_metrics = metrics;
  }

let exec_term =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"JOBS"
          ~doc:
            "Run the parallel phases (subsumption sweep, union evaluation, \
             keyword scoring) with this many domains. Results are identical \
             for every value.")
  in
  let pruning =
    onoff "pruning" ~default:true
      ~on:"Enable the reformulation pruning heuristics."
      ~off:
        "Ablation mode: every reformulation pruning heuristic off, low depth \
         cap."
  in
  let trace =
    onoff "trace" ~default:false
      ~on:
        "Collect hierarchical spans for the whole answer path and print the \
         span tree (timings, per-phase counts) to stderr."
      ~off:"Do not collect or print spans."
  in
  let metrics =
    onoff "metrics" ~default:false
      ~on:
        "Print the Obs.Metrics counters accumulated by the run to stderr."
      ~off:"Do not print the counter snapshot."
  in
  Term.(const make_cli_exec $ jobs $ pruning $ trace $ metrics)

let report_cli_exec cli =
  (match cli.sink with
  | Some sink ->
      List.iter (fun sp -> prerr_string (Obs.Span.render sp)) (Obs.Sink.spans sink)
  | None -> ());
  if cli.show_metrics then
    prerr_string (Obs.Metrics.render (Obs.Metrics.snapshot ()))

let parse_query_arg query_text =
  match Cq.Parser.parse_query query_text with
  | Error msg ->
      Printf.eprintf "query parse error: %s\n" msg;
      exit 1
  | Ok query -> query

(* Catalog source shared by answer/search/distributed: either the
   positional PDMS_FILE, or --data-dir DIR — a durable data directory,
   recovered (snapshot + WAL replay) before serving.  Returns the
   catalog and the positional arguments left after consuming the
   optional file. *)

let data_dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Recover the catalog from a durable data directory (newest \
           snapshot + write-ahead-log replay; see `revere init') instead \
           of reading a $(i,PDMS_FILE) argument.")

let recover_catalog ~exec dir =
  match Pdms.Persist.open_dir ~exec dir with
  | Ok t ->
      let catalog = Pdms.Persist.catalog t in
      (* The read-only commands never append; opening (which also
         repairs any torn WAL tail) and closing is the whole story. *)
      Pdms.Persist.close t;
      catalog
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

let source_catalog ~exec data_dir args =
  match (data_dir, args) with
  | None, file :: rest -> (load_pdms file, rest)
  | Some dir, rest -> (recover_catalog ~exec dir, rest)
  | None, [] ->
      Printf.eprintf "error: give a PDMS_FILE argument or --data-dir DIR\n";
      exit 2

let pos_args docv =
  Arg.(value & pos_all string [] & info [] ~docv)

let one_query what = function
  | [ query_text ] -> parse_query_arg query_text
  | _ ->
      Printf.eprintf
        "error: %s expects [PDMS_FILE] QUERY (the file exactly when \
         --data-dir is not given)\n"
        what;
      exit 2

let answer_pdms data_dir args cli =
  let catalog, rest = source_catalog ~exec:cli.exec data_dir args in
  let query = one_query "answer" rest in
  let result = Pdms.Answer.answer ~exec:cli.exec catalog query in
  let rows = Pdms.Answer.answers_list result in
  List.iter (fun row -> print_endline (String.concat " | " row)) rows;
  Format.eprintf "%d answers; %a@." (List.length rows)
    Pdms.Reformulate.pp_stats
    result.Pdms.Answer.outcome.Pdms.Reformulate.stats;
  report_cli_exec cli

let answer_cmd =
  Cmd.v
    (Cmd.info "answer"
       ~doc:
         "Answer a conjunctive query over a PDMS described in a file or a \
          durable --data-dir")
    Term.(const answer_pdms $ data_dir_arg $ pos_args "PDMS_FILE|QUERY"
          $ exec_term)

let search_pdms data_dir args cli =
  let catalog, keywords = source_catalog ~exec:cli.exec data_dir args in
  if keywords = [] then begin
    Printf.eprintf "error: search expects at least one KEYWORD\n";
    exit 2
  end;
  (match
     Pdms.Keyword.search ~exec:cli.exec catalog (String.concat " " keywords)
   with
  | [] -> print_endline "no hits"
  | hits -> List.iter (fun h -> print_endline (Pdms.Keyword.render_hit h)) hits);
  report_cli_exec cli

let search_cmd =
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Keyword search across every peer's stored data in a PDMS file or \
          a durable --data-dir")
    Term.(
      const search_pdms $ data_dir_arg $ pos_args "PDMS_FILE|KEYWORD"
      $ exec_term)

let distributed_pdms data_dir args at latency fail_peers flaky retries cli =
  let catalog, rest = source_catalog ~exec:cli.exec data_dir args in
  let query = one_query "distributed" rest in
  let network =
    Pdms.Distributed.network_of_catalog catalog ~latency_ms:latency
  in
  (* Faults on real peers degrade the answer and still exit 0; a peer
     the catalog does not declare, or a drop rate that is no
     probability, is a mistake in the command. *)
  List.iter
    (fun (flag, peer) ->
      if not (List.mem peer (Pdms.Network.peers network)) then begin
        Printf.eprintf "error: %s %s: no such peer\n" flag peer;
        exit 1
      end)
    (("--at", at) :: List.map (fun p -> ("--fail-peer", p)) fail_peers);
  if not (flaky >= 0.0 && flaky <= 1.0) then begin
    Printf.eprintf "error: --flaky %g: not a probability in [0, 1]\n" flaky;
    exit 1
  end;
  List.iter (Pdms.Network.Fault.fail_peer network) fail_peers;
  if flaky > 0.0 then Pdms.Network.Fault.flaky network ~p:flaky ();
  let exec =
    {
      cli.exec with
      Pdms.Exec.retry =
        { cli.exec.Pdms.Exec.retry with Pdms.Exec.max_attempts = retries };
    }
  in
  let plan = Pdms.Distributed.execute ~exec catalog network ~at query in
  List.iter
    (fun (p : Pdms.Distributed.site_plan) ->
      Printf.printf "%-12s reads(local=%d remote=%d) fetch=%.2fms ship=%.2fms  %s\n"
        p.Pdms.Distributed.site p.Pdms.Distributed.local_reads
        p.Pdms.Distributed.remote_reads p.Pdms.Distributed.fetch_ms
        p.Pdms.Distributed.ship_ms
        (Cq.Query.to_string p.Pdms.Distributed.rewriting))
    plan.Pdms.Distributed.sites;
  Relalg.Relation.tuples plan.Pdms.Distributed.answers
  |> List.map (fun row ->
         Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort (List.compare String.compare)
  |> List.iter (fun row -> print_endline (String.concat " | " row));
  Printf.printf
    "%d answers; distributed=%.2fms central-baseline=%.2fms\n"
    (Relalg.Relation.cardinality plan.Pdms.Distributed.answers)
    plan.Pdms.Distributed.distributed_ms plan.Pdms.Distributed.central_ms;
  print_endline
    (Pdms.Distributed.report_to_string plan.Pdms.Distributed.report);
  report_cli_exec cli

let distributed_cmd =
  Cmd.v
    (Cmd.info "distributed"
       ~doc:
         "Answer a query with peer-based distributed execution: pick the \
          cheapest site per rewriting over a uniform-latency network built \
          from the mapping graph, and compare against the ship-everything \
          central baseline. Faults can be injected to watch the answer \
          degrade: the tool still exits 0 and reports how much of the \
          answer survived.")
    Term.(
      const distributed_pdms
      $ data_dir_arg
      $ pos_args "PDMS_FILE|QUERY"
      $ Arg.(required & opt (some string) None
             & info [ "at" ] ~docv:"PEER" ~doc:"The querying peer")
      $ Arg.(value & opt float 10.0
             & info [ "latency" ] ~docv:"MS"
                 ~doc:"Per-KB link latency for every mapping-graph edge")
      $ Arg.(value & opt_all string []
             & info [ "fail-peer" ] ~docv:"PEER"
                 ~doc:"Take a peer down before executing (repeatable)")
      $ Arg.(value & opt float 0.0
             & info [ "flaky" ] ~docv:"P"
                 ~doc:"Probability in [0,1] that any individual send is \
                       dropped (seeded PRNG, reproducible)")
      $ Arg.(value & opt int 3
             & info [ "retries" ] ~docv:"N"
                 ~doc:"Send attempts per transfer, including the first")
      $ exec_term)

let gen_pdms seed courses =
  let prng = Util.Prng.create seed in
  let d = Workload.University.build_delearning prng ~courses_per_peer:courses in
  print_string (Pdms.Pdms_file.render d.Workload.University.catalog)

let gen_pdms_cmd =
  Cmd.v
    (Cmd.info "gen-pdms"
       ~doc:
         "Emit the six-university Figure-2 PDMS (Stanford, Berkeley, MIT, \
          Roma, Oxford, Tsinghua) as a Pdms_file, ready for `revere \
          answer`/`search`/`distributed`")
    Term.(
      const gen_pdms
      $ Arg.(value & opt int 2003 & info [ "seed" ] ~doc:"PRNG seed")
      $ Arg.(value & opt int 3
             & info [ "courses" ] ~doc:"courses per university"))

(* ------------------------------------------------------------------ *)

let fig4 input_path =
  let xml =
    match Xmlmodel.Xml_parser.parse (read_file input_path) with
    | Ok x -> x
    | Error msg ->
        Printf.eprintf "error: %s: %s\n" input_path msg;
        exit 1
  in
  (match Xmlmodel.Dtd.validate Workload.University.berkeley_dtd xml with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: not a Berkeley schedule: %s\n" msg;
      exit 1);
  let out =
    Xmlmodel.Template.apply_single Workload.University.berkeley_to_mit
      ~docs:[ ("Berkeley.xml", xml) ]
  in
  print_string (Xmlmodel.Xml.to_string out)

let fig4_cmd =
  Cmd.v
    (Cmd.info "fig4"
       ~doc:"Apply the paper's Figure-4 Berkeley-to-MIT mapping to an XML file")
    Term.(
      const fig4
      $ Arg.(required & pos 0 (some file) None
             & info [] ~docv:"BERKELEY_XML" ~doc:"a schedule document"))

let gen_berkeley seed colleges depts courses =
  let prng = Util.Prng.create seed in
  let xml =
    Workload.University.berkeley_instance prng ~colleges ~depts ~courses
  in
  print_string (Xmlmodel.Xml.to_string xml)

let gen_berkeley_cmd =
  let int_opt name v doc = Arg.(value & opt int v & info [ name ] ~doc) in
  Cmd.v
    (Cmd.info "gen-berkeley" ~doc:"Emit a random Figure-3 Berkeley schedule")
    Term.(
      const gen_berkeley
      $ int_opt "seed" 1 "PRNG seed"
      $ int_opt "colleges" 2 "number of colleges"
      $ int_opt "depts" 2 "departments per college"
      $ int_opt "courses" 3 "courses per department")

(* ------------------------------------------------------------------ *)
(* Durable data directories: init / update / snapshot / fsck.  See
   Pdms.Persist — a directory holds snapshot checkpoints plus a
   write-ahead log of effective deltas; recovery is newest valid
   snapshot + WAL suffix replay. *)

let required_data_dir ~must_exist =
  Arg.(
    required
    & opt (some (if must_exist then dir else string)) None
    & info [ "data-dir" ] ~docv:"DIR" ~doc:"The durable data directory.")

let init_data_dir dir path =
  let catalog = load_pdms path in
  Pdms.Persist.init ~dir catalog;
  Printf.printf "initialised %s from %s (snapshot seq 0, empty wal)\n" dir path

let init_cmd =
  Cmd.v
    (Cmd.info "init"
       ~doc:
         "Create a durable data directory from a PDMS file: a full \
          snapshot covering sequence 0 and an empty write-ahead log. \
          Existing durability state in the directory is replaced.")
    Term.(
      const init_data_dir
      $ required_data_dir ~must_exist:false
      $ Arg.(required & pos 0 (some file) None
             & info [] ~docv:"PDMS_FILE" ~doc:"Pdms_file format"))

let parse_row_arg s =
  Pdms.Pdms_file.split_row s |> List.map String.trim
  |> List.map Pdms.Pdms_file.parse_value
  |> Array.of_list

let update_data_dir dir rel inserts deletes do_snapshot cli =
  let t = Pdms.Persist.open_dir_exn ~exec:cli.exec dir in
  let u =
    Pdms.Updategram.make ~rel
      ~inserts:(List.map parse_row_arg inserts)
      ~deletes:(List.map parse_row_arg deletes)
      ()
  in
  (try Pdms.Persist.apply ~exec:cli.exec ~sync:true t u with
  | Not_found ->
      Printf.eprintf "error: no stored relation %s\n" rel;
      exit 1
  | Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1);
  Printf.printf "applied %d insert(s), %d delete(s) to %s; wal seq %d\n"
    (List.length inserts) (List.length deletes) rel (Pdms.Persist.wal_seq t);
  if do_snapshot then
    Printf.printf "snapshot %s\n" (Pdms.Persist.snapshot t);
  Pdms.Persist.close t;
  report_cli_exec cli

let row_opt name doc =
  Arg.(value & opt_all string [] & info [ name ] ~docv:"ROW" ~doc)

let update_cmd =
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply an updategram to a durable data directory: the effective \
          delta is appended to the write-ahead log (fsynced) before the \
          store mutates, so a crash at any point recovers consistently. \
          Row values use the Pdms_file syntax: 'v | v | ...', single \
          quotes forcing string interpretation.")
    Term.(
      const update_data_dir
      $ required_data_dir ~must_exist:true
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"REL"
                 ~doc:"The stored relation, e.g. 'uw.course!'")
      $ row_opt "insert" "Tuple to insert (repeatable)."
      $ row_opt "delete" "Tuple to delete (repeatable)."
      $ Arg.(value & flag
             & info [ "snapshot" ]
                 ~doc:"Checkpoint the catalog after applying.")
      $ exec_term)

let snapshot_data_dir dir cli =
  let t = Pdms.Persist.open_dir_exn ~exec:cli.exec dir in
  Printf.printf "snapshot %s (covers wal seq %d)\n" (Pdms.Persist.snapshot t)
    (Pdms.Persist.wal_seq t);
  Pdms.Persist.close t;
  report_cli_exec cli

let snapshot_cmd =
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Checkpoint a durable data directory: write a fresh snapshot \
          stamped with the current write-ahead-log sequence, so future \
          recoveries replay only the records after it.")
    Term.(const snapshot_data_dir $ required_data_dir ~must_exist:true
          $ exec_term)

let fsck_data_dir dir =
  let report = Pdms.Persist.fsck dir in
  print_string (Pdms.Persist.render_fsck report);
  exit (if Pdms.Persist.fsck_ok report then 0 else 1)

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a durable data directory read-only: snapshot checksums, \
          write-ahead-log framing (a torn tail is reported but is not an \
          error — recovery discards it), and a replay dry run. Exits 0 \
          exactly when recovery would succeed.")
    Term.(const fsck_data_dir $ required_data_dir ~must_exist:true)

(* ------------------------------------------------------------------ *)

let stem words =
  List.iter (fun w -> Printf.printf "%s -> %s\n" w (Util.Stemmer.stem w)) words

let stem_cmd =
  Cmd.v (Cmd.info "stem" ~doc:"Porter-stem words")
    Term.(const stem $ Arg.(value & pos_all string [] & info [] ~docv:"WORD"))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "revere" ~version:"1.0.0"
      ~doc:"REVERE: crossing the structure chasm (CIDR 2003), in OCaml"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ demo_cmd; match_cmd; advise_cmd; critique_cmd; stats_cmd;
            query_cmd; stem_cmd; fig4_cmd; gen_berkeley_cmd; gen_pdms_cmd;
            answer_cmd; search_cmd; distributed_cmd; init_cmd; update_cmd;
            snapshot_cmd; fsck_cmd ]))
