(* MANGROVE on a campus (Section 2): a whole department annotates its
   existing pages; the instant-gratification applications and a
   generated course summary come alive; integrity constraints are
   deferred and cleaned per application; the proactive inconsistency
   finder notifies authors.

   Run with: dune exec examples/mangrove_campus.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  let prng = Util.Prng.create 7 in
  let repo = Mangrove.Repository.create () in

  section "Annotate and publish a department's existing pages";
  (* Live views registered BEFORE publishing: they refresh on the spot. *)
  let calendar = Mangrove.Apps.live ~compute:Mangrove.Apps.calendar repo in
  let papers = Mangrove.Apps.live ~compute:Mangrove.Apps.paper_database repo in
  (* A generated page (Section 2.3): the department-wide course
     summary, rebuilt from the repository on every publish. *)
  let summary =
    Mangrove.Dynamic_page.live_course_summary ~url:"http://uw.edu/courses.html" repo
  in
  let pages =
    Workload.Pages.publish_department prng ~repo ~host:"uw" ~people:5
      ~course_pages:3 ~courses_per_page:3
  in
  Printf.printf "published %d pages; repository holds %d triples from %d sources\n"
    pages
    (Storage.Triple_store.size (Mangrove.Repository.store repo))
    (List.length (Storage.Triple_store.sources (Mangrove.Repository.store repo)));
  Printf.printf "the live calendar refreshed %d times (once per publish)\n"
    (Mangrove.Apps.refresh_count calendar);

  section "Instant gratification: the department calendar";
  List.iteri
    (fun i (r : Mangrove.Apps.course_row) ->
      if i < 5 then
        Printf.printf "  %-9s %-10s %-6s %-10s %s\n" r.Mangrove.Apps.code
          r.Mangrove.Apps.day r.Mangrove.Apps.time r.Mangrove.Apps.room
          r.Mangrove.Apps.course_title)
    (Mangrove.Apps.value calendar);
  Printf.printf "  ... %d rows total\n" (List.length (Mangrove.Apps.value calendar));
  let summary_rows =
    Xmlmodel.Xml.descendants_named (Mangrove.Apps.value summary).Mangrove.Html.body "tr"
  in
  Printf.printf "the generated course summary page lists %d courses\n"
    (List.length summary_rows - 1 (* its header row *));

  section "Paper database and annotation-aware search";
  Printf.printf "%d publications on record\n"
    (List.length (Mangrove.Apps.value papers));
  (match Mangrove.Apps.value papers with
  | (p : Mangrove.Apps.publication_row) :: _ ->
      let hits = Mangrove.Apps.search ~tag:"publication" repo p.Mangrove.Apps.author in
      Printf.printf "searching for %S finds %d ranked entities\n"
        p.Mangrove.Apps.author (List.length hits)
  | [] -> ());

  section "Deferred integrity: conflicting phone numbers";
  (* The department directory page asserts a different phone for alice
     than her own home page does. Both publish without complaint. *)
  let leaf tag value = Xmlmodel.Xml.element tag [ Xmlmodel.Xml.text value ] in
  let make_page url spans =
    Mangrove.Html.make ~url ~title:url
      (Xmlmodel.Xml.element "html"
         [ Xmlmodel.Xml.element "h1" [ Xmlmodel.Xml.text url ];
           Xmlmodel.Xml.element "div" (List.map (fun s -> leaf "span" s) spans) ])
  in
  let annotate_person page tags =
    let a = Mangrove.Annotator.start ~schema:Mangrove.Lightweight_schema.department page in
    Mangrove.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
    List.iteri
      (fun i tag -> Mangrove.Annotator.annotate_exn a ~node:[ 1; i ] ~tag)
      tags;
    ignore (Mangrove.Repository.publish repo a)
  in
  annotate_person
    (make_page "http://uw.edu/alice/home.html" [ "alice zhang"; "206-543-1111" ])
    [ "name"; "phone" ];
  annotate_person
    (make_page "http://uw.edu/dept/directory.html" [ "alice zhang"; "206-543-9999" ])
    [ "name"; "phone" ];
  (* Different applications clean the same dirty data differently. *)
  let show policy =
    let dir = Mangrove.Apps.phone_directory ~policy repo in
    match List.find_opt (fun (n, _) -> n = "alice zhang") dir with
    | Some (_, phone) ->
        let rendered = Format.asprintf "%a" Mangrove.Cleaning.pp_policy policy in
        Printf.printf "  policy %-42s -> alice zhang: %s\n" rendered phone
    | None -> ()
  in
  (* Two subjects named alice zhang exist (one per page); pick the one
     with two claims by looking at the finder below. Policies act per
     subject; here we show the repository-wide directory. *)
  show Mangrove.Cleaning.Freshest;
  show (Mangrove.Cleaning.Prefer_scope ("http://uw.edu/alice", Mangrove.Cleaning.Freshest));

  section "Proactive inconsistency finder";
  (* Publish a page that gives ONE subject two distinct offices. *)
  let page = make_page "http://uw.edu/bob.html" [ "bob chen"; "allen 101"; "sieg 202" ] in
  let a = Mangrove.Annotator.start ~schema:Mangrove.Lightweight_schema.department page in
  Mangrove.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
  Mangrove.Annotator.annotate_exn a ~node:[ 1; 0 ] ~tag:"name";
  Mangrove.Annotator.annotate_exn a ~node:[ 1; 1 ] ~tag:"office";
  Mangrove.Annotator.annotate_exn a ~node:[ 1; 2 ] ~tag:"office";
  ignore (Mangrove.Repository.publish repo a);
  let conflicts =
    Mangrove.Inconsistency.find repo
      ~functional:[ ("person", "phone"); ("person", "office") ]
  in
  Printf.printf "%d functional-constraint conflicts detected\n"
    (List.length conflicts);
  List.iter
    (fun (url, msg) -> Printf.printf "  notify %s: %s\n" url msg)
    (Mangrove.Inconsistency.notifications conflicts);

  section "Editing a page re-publishes cleanly";
  (* Bob fixes his page: only one office now. *)
  let fixed = make_page "http://uw.edu/bob.html" [ "bob chen"; "allen 101" ] in
  let a = Mangrove.Annotator.start ~schema:Mangrove.Lightweight_schema.department fixed in
  Mangrove.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
  Mangrove.Annotator.annotate_exn a ~node:[ 1; 0 ] ~tag:"name";
  Mangrove.Annotator.annotate_exn a ~node:[ 1; 1 ] ~tag:"office";
  ignore (Mangrove.Repository.publish repo a);
  let conflicts =
    Mangrove.Inconsistency.find repo ~functional:[ ("person", "office") ]
  in
  Printf.printf "after the fix: %d office conflicts remain\n" (List.length conflicts);
  print_newline ()
