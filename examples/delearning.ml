(* The DElearning scenario (Examples 1.1 and 3.1, Figures 2-4).

   - Builds the six-university PDMS of Figure 2.
   - Shows a student query answered across the whole coalition from any
     peer, in that peer's own vocabulary (including Italian at Roma).
   - Runs the Figure-4 XML mapping: Berkeley's nested schedule becomes
     an MIT-shaped catalog, and a path query posed at MIT is translated
     through it and answered on Berkeley's document.
   - Has the University of Trento join the coalition: its mapping is
     proposed by the corpus-based MatchingAdvisor, and it maps to the
     semantically closest member (Roma), not to a global schema.

   Run with: dune exec examples/delearning.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let prng = Util.Prng.create 2003 in
  section "Figure 2: the six-university PDMS";
  let scenario = Core.Delearning.build prng ~courses_per_peer:3 in
  let d = scenario.Core.Delearning.delearning in
  Printf.printf "peers: %s\n"
    (String.concat ", " (List.map fst d.Workload.University.peers));
  Printf.printf "mappings authored: %d (linear in the number of peers)\n"
    (Pdms.Catalog.mapping_count d.Workload.University.catalog);
  Printf.printf "network diameter does not matter: reformulation chases the\n";
  Printf.printf "transitive closure of mappings.\n";

  section "A student browses at Roma, in Italian";
  let roma = Pdms.Catalog.peer d.Workload.University.catalog "roma" in
  let query = Workload.University.course_query roma in
  Printf.printf "query: %s\n" (Cq.Query.to_string query);
  let result = Pdms.Answer.answer d.Workload.University.catalog query in
  let rows = Pdms.Answer.answers_list result in
  Printf.printf "corsi visibili: %d (every university's offerings)\n"
    (List.length rows);
  List.iteri
    (fun i row -> if i < 6 then Printf.printf "  %s\n" (String.concat " | " row))
    rows;
  Format.printf "reformulation: %a@."
    Pdms.Reformulate.pp_stats result.Pdms.Answer.outcome.Pdms.Reformulate.stats;

  section "A join, still in local vocabulary";
  (* Tsinghua asks who teaches what — a two-relation join answered
     across all ten mappings (course + instructor per edge). *)
  let tsinghua = Pdms.Catalog.peer d.Workload.University.catalog "tsinghua" in
  let join_query = Workload.University.course_instructor_query tsinghua in
  Printf.printf "query: %s\n" (Cq.Query.to_string join_query);
  let join_result = Pdms.Answer.answer d.Workload.University.catalog join_query in
  let join_rows = Pdms.Answer.answers_list join_result in
  Printf.printf "%d (course, instructor) pairs from the whole coalition:\n"
    (List.length join_rows);
  List.iteri
    (fun i row -> if i < 4 then Printf.printf "  %s\n" (String.concat " | " row))
    join_rows;

  section "Figure 4: the Berkeley-to-MIT XML mapping";
  let berkeley_xml =
    Workload.University.berkeley_instance prng ~colleges:1 ~depts:2 ~courses:2
  in
  (match Xmlmodel.Dtd.validate Workload.University.berkeley_dtd berkeley_xml with
  | Ok () -> Printf.printf "Berkeley.xml validates against the Figure-3 DTD\n"
  | Error e -> Printf.printf "unexpected: %s\n" e);
  let mit_catalog =
    Xmlmodel.Template.apply_single Workload.University.berkeley_to_mit
      ~docs:[ ("Berkeley.xml", berkeley_xml) ]
  in
  (match Xmlmodel.Dtd.validate Workload.University.mit_dtd mit_catalog with
  | Ok () -> Printf.printf "the mapped catalog validates against MIT's DTD\n"
  | Error e -> Printf.printf "unexpected: %s\n" e);
  (* The XML peers: MIT holds an empty catalog, and the Figure-4
     mapping relates Berkeley's schedule to it. A path posed in MIT's
     schema is translated through the mapping and answered on
     Berkeley's document, with nothing materialised. *)
  let xml_peers = Xmlmodel.Xml_pdms.create () in
  Xmlmodel.Xml_pdms.add_peer xml_peers ~name:"berkeley"
    ~dtd:Workload.University.berkeley_dtd berkeley_xml;
  Xmlmodel.Xml_pdms.add_peer xml_peers ~name:"mit"
    ~dtd:Workload.University.mit_dtd
    (Xmlmodel.Xml.element "catalog" []);
  Xmlmodel.Xml_pdms.add_mapping xml_peers ~source:"berkeley" ~target:"mit"
    Workload.University.berkeley_to_mit;
  let target = Xmlmodel.Path.of_string "catalog/course/subject/title/text()" in
  let titles = Xmlmodel.Xml_pdms.query xml_peers ~at:"mit" target in
  Printf.printf "MIT path %s answers %d titles from Berkeley: %s\n"
    (Xmlmodel.Path.to_string target) (List.length titles)
    (String.concat ", " titles);

  section "Peer-based query processing";
  (* Execute the Roma query with the network in the loop: each rewriting
     runs at the peer owning its data, results ship back. *)
  let plan =
    Pdms.Distributed.execute d.Workload.University.catalog
      d.Workload.University.network ~at:"roma" query
  in
  Printf.printf "distributed plan: %d site executions\n"
    (List.length plan.Pdms.Distributed.sites);
  List.iteri
    (fun i (sp : Pdms.Distributed.site_plan) ->
      if i < 4 then
        Printf.printf "  run at %-9s (local reads %d, ship %.1f ms)\n"
          sp.Pdms.Distributed.site sp.Pdms.Distributed.local_reads
          sp.Pdms.Distributed.ship_ms)
    plan.Pdms.Distributed.sites;
  Printf.printf "simulated cost: distributed %.1f ms vs central %.1f ms\n"
    plan.Pdms.Distributed.distributed_ms plan.Pdms.Distributed.central_ms;

  section "Trento joins the coalition";
  let report =
    Core.Delearning.join_university scenario prng ~name:"trento" ~rel:"corso"
      ~attrs:[ "titolo"; "iscritti" ] ~courses:4
  in
  Printf.printf "the MatchingAdvisor mapped trento to '%s' with:\n"
    report.Core.Delearning.mapped_to;
  List.iter
    (fun (a, b) -> Printf.printf "  trento.%s  <->  %s.%s\n" a
        report.Core.Delearning.mapped_to b)
    report.Core.Delearning.correspondences;
  Printf.printf "one new mapping, total now %d\n"
    (Pdms.Catalog.mapping_count d.Workload.University.catalog);
  let at_trento = Core.Delearning.courses_visible_at scenario "trento" in
  Printf.printf "trento students now see %d courses, e.g.:\n"
    (List.length at_trento);
  List.iteri (fun i t -> if i < 4 then Printf.printf "  %s\n" t) at_trento;
  let at_mit = Core.Delearning.courses_visible_at scenario "mit" in
  Printf.printf "and MIT's inventory grew to %d (trento's courses flowed back)\n"
    (List.length at_mit);
  print_newline ()
