(* Quickstart: the three REVERE components in one small session.

   1. MANGROVE  — annotate an HTML page, publish, get instant results.
   2. Piazza    — share the structured data with a second peer through a
                  schema mapping, query in either vocabulary.
   3. Corpus    — let the statistics suggest what to do next.

   Run with: dune exec examples/quickstart.exe *)

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  section "1. MANGROVE: structure an existing web page";
  (* Professor Alon's home page, as it already exists. *)
  let leaf tag value = Xmlmodel.Xml.element tag [ Xmlmodel.Xml.text value ] in
  let body =
    Xmlmodel.Xml.element "html"
      [ Xmlmodel.Xml.element "h1" [ Xmlmodel.Xml.text "alon's home page" ];
        Xmlmodel.Xml.element "div"
          [ leaf "span" "alon halevy"; leaf "span" "206-543-1695";
            leaf "span" "allen 592"; leaf "span" "alon42@berkeley.edu" ] ]
  in
  let page = Mangrove.Html.make ~url:"http://uw.edu/alon.html" ~title:"alon" body in
  let node =
    Core.Revere.create ~name:"uw" ~peer_schema:[ ("person", [ "name"; "phone"; "office" ]) ] ()
  in
  let annotator = Core.Revere.annotator node page in
  (* Highlight regions of the page and pick tags from the schema tree. *)
  Mangrove.Annotator.annotate_exn annotator ~node:[ 1 ] ~tag:"person";
  Mangrove.Annotator.annotate_exn annotator ~node:[ 1; 0 ] ~tag:"name";
  Mangrove.Annotator.annotate_exn annotator ~node:[ 1; 1 ] ~tag:"phone";
  Mangrove.Annotator.annotate_exn annotator ~node:[ 1; 2 ] ~tag:"office";
  Mangrove.Annotator.annotate_exn annotator ~node:[ 1; 3 ] ~tag:"email";
  (* Instant gratification: a live Who's Who refreshes on publish. *)
  let repo = Core.Revere.repository node in
  let whos_who = Mangrove.Apps.live ~compute:Mangrove.Apps.who_is_who repo in
  let triples = Core.Revere.publish node annotator in
  Printf.printf "published %d triples from %s\n" triples page.Mangrove.Html.url;
  List.iter
    (fun (r : Mangrove.Apps.person_row) ->
      Printf.printf "who's who: %s | %s | %s\n" r.Mangrove.Apps.person_name
        r.Mangrove.Apps.email r.Mangrove.Apps.office)
    (Mangrove.Apps.value whos_who);
  Printf.printf "the app refreshed %d time(s) without being asked\n"
    (Mangrove.Apps.refresh_count whos_who);
  (* The annotations live in the page itself (Section 2.1): embedded as
     attributes a browser ignores, and read back from it. *)
  let embedded = Mangrove.Embed.embed annotator in
  let recovered =
    Mangrove.Embed.extract ~schema:(Mangrove.Annotator.schema annotator)
      ~url:page.Mangrove.Html.url embedded
  in
  Printf.printf "embedded %d annotations in the page; %d read back from it\n"
    (List.length (Mangrove.Annotator.annotations annotator))
    (List.length (Mangrove.Annotator.annotations recovered));

  section "2. Piazza: share through a peer mapping";
  let catalog = Pdms.Catalog.create () in
  Pdms.Catalog.add_peer catalog (Core.Revere.peer node);
  (* Feed the published annotations into the peer's stored relation. *)
  let synced =
    Core.Revere.sync node ~catalog ~rel:"person" ~tag:"person"
      ~fields:[ "name"; "phone"; "office" ]
  in
  Printf.printf "synced %d tuples into uw's stored relation\n" synced;
  (* A second institution with its own vocabulary: staff(who, tel). *)
  let mit = Pdms.Peer.create ~name:"mit" ~schema:[ ("staff", [ "who"; "tel" ]) ] in
  Pdms.Catalog.add_peer catalog mit;
  let v = Cq.Term.v in
  let lhs =
    Cq.Query.make (Cq.Atom.make "m" [ v "N"; v "P" ])
      [ Pdms.Peer.atom (Core.Revere.peer node) "person" [ v "N"; v "P"; v "O" ] ]
  in
  let rhs =
    Cq.Query.make (Cq.Atom.make "m" [ v "N"; v "P" ])
      [ Pdms.Peer.atom mit "staff" [ v "N"; v "P" ] ]
  in
  ignore (Pdms.Catalog.add_mapping catalog (Pdms.Peer_mapping.equality ~lhs ~rhs));
  (* MIT queries in ITS schema; answers come from UW's data. *)
  let query =
    Cq.Query.make (Cq.Atom.make "ans" [ v "W"; v "T" ])
      [ Pdms.Peer.atom mit "staff" [ v "W"; v "T" ] ]
  in
  let result = Pdms.Answer.answer catalog query in
  Printf.printf "mit asks staff(who, tel) and gets:\n";
  List.iter
    (fun row -> Printf.printf "  %s\n" (String.concat " | " row))
    (Pdms.Answer.answers_list result);
  Format.printf "reformulation: %a@."
    Pdms.Reformulate.pp_stats result.Pdms.Answer.outcome.Pdms.Reformulate.stats;

  section "3. Corpus: statistics advise the next designer";
  let prng = Util.Prng.create 1 in
  let corpus = Workload.University.corpus_of_variants prng ~n:8 ~level:0.3 in
  let stats = Corpus.Basic_stats.build corpus in
  let usage = Corpus.Basic_stats.term_usage stats "phone" in
  Printf.printf "'phone' is an attribute in %.0f%% of corpus schemas\n"
    (100.0 *. usage.Corpus.Basic_stats.as_attribute);
  (match Corpus.Basic_stats.cooccurring_attrs stats "phone" with
  | (top, f) :: _ ->
      Printf.printf "it most often sits next to '%s' (%.0f%% of its relations)\n"
        top (100.0 *. f)
  | [] -> ());
  let advisor = Advisor.Design_advisor.build corpus in
  let partial =
    Corpus.Schema_model.make ~name:"draft"
      [ Corpus.Schema_model.relation "course"
          [ Corpus.Schema_model.attribute "title";
            Corpus.Schema_model.attribute "instructor" ] ]
  in
  let missing = Advisor.Design_advisor.autocomplete advisor ~partial in
  Printf.printf "DesignAdvisor proposes %d further elements, e.g.:\n"
    (List.length missing);
  List.iteri
    (fun i (rel, attr) -> if i < 5 then Printf.printf "  %s.%s\n" rel attr)
    missing;

  section "4. U-WORLD habits over S-WORLD data";
  (* Keyword search across every peer's stored relations. *)
  List.iter
    (fun hit -> Printf.printf "keyword hit: %s\n" (Pdms.Keyword.render_hit hit))
    (Pdms.Keyword.search catalog "halevy");
  (* Graceful degradation: the user misremembers the office. *)
  let bad_guess =
    Cq.Parser.parse_query_exn
      "ans(N) :- uw.person!(N, P, 'allen 999')"
  in
  (match Cq.Relax.graceful (Pdms.Catalog.global_db catalog) bad_guess with
  | Some r ->
      Printf.printf
        "query for office 'allen 999' found nothing; after %d relaxation \
         step(s) we get:\n"
        (List.length r.Cq.Relax.steps);
      Relalg.Relation.iter
        (fun row ->
          Printf.printf "  %s\n"
            (String.concat " | "
               (Array.to_list (Array.map Relalg.Value.to_string row))))
        r.Cq.Relax.answers
  | None -> Printf.printf "nothing found even after relaxation\n");
  print_newline ()
