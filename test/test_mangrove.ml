(* Tests for MANGROVE: annotation, publishing, deferred integrity,
   instant-gratification apps, inconsistency finding. *)

module M = Mangrove
module Xml = Xmlmodel.Xml

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let leaf tag value = Xml.element tag [ Xml.text value ]

(* Alice's home page: name, phone, office. *)
let alice_page () =
  let body =
    Xml.element "html"
      [ Xml.element "h1" [ Xml.text "alice anderson" ];
        Xml.element "div"
          [ leaf "span" "alice anderson"; leaf "span" "206-543-1695";
            leaf "span" "allen 301" ] ]
  in
  M.Html.make ~url:"http://u/alice.html" ~title:"alice" body

let annotate_alice () =
  let a = M.Annotator.start ~schema:M.Lightweight_schema.department (alice_page ()) in
  M.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
  M.Annotator.annotate_exn a ~node:[ 1; 0 ] ~tag:"name";
  M.Annotator.annotate_exn a ~node:[ 1; 1 ] ~tag:"phone";
  M.Annotator.annotate_exn a ~node:[ 1; 2 ] ~tag:"office";
  a

(* ------------------------------------------------------------------ *)
(* Lightweight schema *)

let test_schema_structure () =
  let s = M.Lightweight_schema.department in
  check_b "person is instance" true
    (List.mem "person" (M.Lightweight_schema.instance_tags s));
  check_b "phone under person" true
    (M.Lightweight_schema.allowed_under s ~child:"phone" ~parent:(Some "person"));
  check_b "phone not top-level" false
    (M.Lightweight_schema.allowed_under s ~child:"phone" ~parent:None);
  check_b "tag path" true
    (M.Lightweight_schema.tag_path s "phone" = [ "person"; "phone" ])

let test_schema_validation () =
  check_b "cycle rejected" true
    (try
       ignore (M.Lightweight_schema.make ~name:"bad" [ ("a", Some "b"); ("b", Some "a") ]);
       false
     with Invalid_argument _ -> true);
  check_b "unknown parent rejected" true
    (try
       ignore (M.Lightweight_schema.make ~name:"bad" [ ("a", Some "zebra") ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Annotator *)

let test_annotator_nesting_rules () =
  let a = M.Annotator.start ~schema:M.Lightweight_schema.department (alice_page ()) in
  (* Field before instance: rejected. *)
  check_b "orphan field rejected" true
    (Result.is_error (M.Annotator.annotate a ~node:[ 1; 1 ] ~tag:"phone"));
  M.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
  check_b "field inside instance ok" true
    (Result.is_ok (M.Annotator.annotate a ~node:[ 1; 1 ] ~tag:"phone"));
  (* Wrong field for the enclosing instance. *)
  check_b "course field under person rejected" true
    (Result.is_error (M.Annotator.annotate a ~node:[ 1; 0 ] ~tag:"title"));
  (* Instance inside instance. *)
  check_b "nested instance rejected" true
    (Result.is_error (M.Annotator.annotate a ~node:[ 1; 2 ] ~tag:"course"));
  check_b "unknown tag rejected" true
    (Result.is_error (M.Annotator.annotate a ~node:[ 1; 2 ] ~tag:"zebra"));
  check_b "missing node rejected" true
    (Result.is_error (M.Annotator.annotate a ~node:[ 9; 9 ] ~tag:"person"))

let test_annotator_grouping () =
  let a = annotate_alice () in
  match M.Annotator.grouped a with
  | [ (inst, fields) ] ->
      check_s "instance tag" "person" inst.M.Annotation.tag;
      check_i "three fields" 3 (List.length fields)
  | groups -> Alcotest.fail (Printf.sprintf "expected 1 group, got %d" (List.length groups))

let test_annotator_annotate_text () =
  let a = M.Annotator.start ~schema:M.Lightweight_schema.department (alice_page ()) in
  M.Annotator.annotate_exn a ~node:[ 1 ] ~tag:"person";
  check_b "by text" true (Result.is_ok (M.Annotator.annotate_text a "206-543" ~tag:"phone"));
  match M.Annotator.annotations a with
  | [ _; phone ] -> check_s "value captured" "206-543-1695" phone.M.Annotation.value
  | _ -> Alcotest.fail "expected two annotations"

let test_suggest_tags () =
  let a = M.Annotator.start ~schema:M.Lightweight_schema.department (alice_page ()) in
  (* The node containing a phone-like string should rank 'phone' high
     only via lexical affinity — here we check the API yields a ranking
     containing all schema tags. *)
  let suggestions = M.Annotator.suggest_tags a ~node:[ 1; 1 ] in
  check_i "all tags ranked"
    (List.length (M.Lightweight_schema.tags M.Lightweight_schema.department))
    (List.length suggestions)

(* ------------------------------------------------------------------ *)
(* Repository and publish *)

let test_publish_and_query () =
  let repo = M.Repository.create () in
  let triples = M.Repository.publish repo (annotate_alice ()) in
  check_i "type + label + 3 fields" 5 triples;
  (match M.Repository.entities repo ~tag:"person" with
  | [ subject ] ->
      check_s "phone" "206-543-1695"
        (match M.Repository.field_value repo ~subject ~field:"phone" with
        | Some v -> Relalg.Value.to_string v
        | None -> "")
  | _ -> Alcotest.fail "expected one person");
  (* Republish replaces, not duplicates. *)
  ignore (M.Repository.publish repo (annotate_alice ()));
  check_i "still one person" 1 (List.length (M.Repository.entities repo ~tag:"person"))

let test_publish_notifies () =
  let repo = M.Repository.create () in
  let notified = ref 0 in
  M.Repository.on_publish repo (fun () -> incr notified);
  ignore (M.Repository.publish repo (annotate_alice ()));
  check_i "listener fired" 1 !notified

(* ------------------------------------------------------------------ *)
(* Cleaning policies *)

let conflicting_phones () =
  let p1 = Storage.Provenance.make ~source_url:"http://u/alice/home.html" ~timestamp:5 () in
  let p2 = Storage.Provenance.make ~source_url:"http://u/dept/directory.html" ~timestamp:9 () in
  let p3 = Storage.Provenance.make ~source_url:"http://elsewhere/page.html" ~timestamp:2 () in
  [ (Relalg.Value.Str "111", p1); (Relalg.Value.Str "222", p2);
    (Relalg.Value.Str "222", p3) ]

let test_cleaning_policies () =
  let values = conflicting_phones () in
  let resolve p = M.Cleaning.resolve p values |> List.map Relalg.Value.to_string in
  check_b "keep_all" true (resolve M.Cleaning.Keep_all = [ "222"; "111" ]);
  check_b "first" true (resolve M.Cleaning.First = [ "222" ]);
  check_b "freshest" true (resolve M.Cleaning.Freshest = [ "222" ]);
  check_b "majority" true (resolve M.Cleaning.Majority = [ "222" ]);
  (* Alice's own web space wins regardless. *)
  check_b "prefer scope" true
    (resolve (M.Cleaning.Prefer_scope ("http://u/alice", M.Cleaning.Majority)) = [ "111" ]);
  (* Scope missing: falls back. *)
  check_b "scope fallback" true
    (resolve (M.Cleaning.Prefer_scope ("http://nowhere", M.Cleaning.First)) = [ "222" ]);
  check_b "empty input" true (M.Cleaning.resolve M.Cleaning.Majority [] = [])

(* ------------------------------------------------------------------ *)
(* Instant gratification apps *)

let department_repo seed =
  let repo = M.Repository.create () in
  let prng = Util.Prng.create seed in
  ignore
    (Workload.Pages.publish_department prng ~repo ~host:"uw" ~people:4
       ~course_pages:2 ~courses_per_page:3);
  repo

let test_calendar_app () =
  let repo = department_repo 11 in
  let rows = M.Apps.calendar repo in
  check_i "six courses" 6 (List.length rows);
  List.iter
    (fun (r : M.Apps.course_row) ->
      check_b "has code" true (String.length r.M.Apps.code > 0))
    rows

let test_who_is_who_and_phone_directory () =
  let repo = department_repo 12 in
  check_i "four people" 4 (List.length (M.Apps.who_is_who repo));
  let phones = M.Apps.phone_directory ~policy:M.Cleaning.Freshest repo in
  check_i "four phones" 4 (List.length phones)

let test_paper_database () =
  let repo = department_repo 13 in
  check_i "two papers per person" 8 (List.length (M.Apps.paper_database repo))

let test_search_app () =
  let repo = M.Repository.create () in
  ignore (M.Repository.publish repo (annotate_alice ()));
  let hits = M.Apps.search repo "alice" in
  check_b "finds alice" true (hits <> []);
  let none = M.Apps.search repo "zzzzqqq" in
  check_i "no bogus hits" 0 (List.length none)

let test_live_view_instant_gratification () =
  let repo = M.Repository.create () in
  let live = M.Apps.live ~compute:(fun r -> List.length (M.Apps.who_is_who r)) repo in
  check_i "empty at start" 0 (M.Apps.value live);
  ignore (M.Repository.publish repo (annotate_alice ()));
  (* The view refreshed without any polling — instant gratification. *)
  check_i "updated immediately" 1 (M.Apps.value live);
  check_i "one refresh" 1 (M.Apps.refresh_count live)

(* ------------------------------------------------------------------ *)
(* Embedded annotations (Section 2.1) *)

let test_embed_roundtrip () =
  let a = annotate_alice () in
  let embedded = M.Embed.embed a in
  (* The rendered text is untouched. *)
  check_s "text unchanged"
    (Xml.text_content (M.Annotator.document a).M.Html.body)
    (Xml.text_content embedded);
  (* Extraction recovers the same annotations. *)
  let recovered =
    M.Embed.extract ~schema:M.Lightweight_schema.department
      ~url:"http://u/alice.html" embedded
  in
  let render anns =
    List.map
      (fun (x : M.Annotation.t) ->
        (x.M.Annotation.node, x.M.Annotation.tag, x.M.Annotation.value))
      anns
    |> List.sort compare
  in
  check_b "annotations recovered" true
    (render (M.Annotator.annotations a) = render (M.Annotator.annotations recovered));
  (* Publishing the recovered page yields the same triples. *)
  let repo1 = M.Repository.create () and repo2 = M.Repository.create () in
  check_i "same triple count"
    (M.Repository.publish repo1 a)
    (M.Repository.publish repo2 recovered)

let test_embed_survives_serialisation () =
  (* Embed, print to a string, parse back, extract: the full in-place
     annotation lifecycle through an HTML file on disk. *)
  let a = annotate_alice () in
  let on_disk = Xml.to_string (M.Embed.embed a) in
  let reparsed = Xmlmodel.Xml_parser.parse_exn on_disk in
  let recovered =
    M.Embed.extract ~schema:M.Lightweight_schema.department
      ~url:"http://u/alice.html" reparsed
  in
  check_i "four annotations" 4 (List.length (M.Annotator.annotations recovered));
  (match M.Annotator.grouped recovered with
  | [ (inst, fields) ] ->
      check_s "person instance" "person" inst.M.Annotation.tag;
      check_i "three fields" 3 (List.length fields)
  | _ -> Alcotest.fail "expected one group")

let test_embed_is_stable () =
  let a = annotate_alice () in
  let once = M.Embed.embed a in
  let recovered =
    M.Embed.extract ~schema:M.Lightweight_schema.department
      ~url:"http://u/alice.html" once
  in
  check_b "idempotent" true (Xml.equal once (M.Embed.embed recovered))

(* ------------------------------------------------------------------ *)
(* Dynamic pages (Strudel-style) *)

let test_dynamic_course_summary () =
  let repo = department_repo 21 in
  let page = M.Dynamic_page.course_summary ~url:"http://uw/summary.html" repo in
  (* One table row per course plus the header row. *)
  let rows = Xml.descendants_named page.M.Html.body "tr" in
  check_i "rows" (6 + 1) (List.length rows)

let test_dynamic_page_is_live () =
  let repo = M.Repository.create () in
  let live = M.Dynamic_page.live_course_summary ~url:"http://uw/summary.html" repo in
  let rows_of page = List.length (Xml.descendants_named page.M.Html.body "tr") in
  check_i "header only" 1 (rows_of (M.Apps.value live));
  let prng = Util.Prng.create 5 in
  ignore
    (Workload.Pages.publish_department prng ~repo ~host:"uw" ~people:1
       ~course_pages:1 ~courses_per_page:2);
  check_i "rows appeared without polling" 3 (rows_of (M.Apps.value live))

let test_dynamic_people_directory () =
  let repo = department_repo 22 in
  let page =
    M.Dynamic_page.people_directory ~url:"http://uw/people.html"
      ~policy:M.Cleaning.Freshest repo
  in
  check_i "four people + header" 5
    (List.length (Xml.descendants_named page.M.Html.body "tr"))

(* ------------------------------------------------------------------ *)
(* Deferred integrity + inconsistency finder *)

let test_inconsistency_finder () =
  let repo = M.Repository.create () in
  ignore (M.Repository.publish repo (annotate_alice ()));
  (* A second page claims a different phone for the same person — but a
     different subject. Conflicts are per subject, so none yet. *)
  check_i "no conflicts" 0
    (List.length (M.Inconsistency.find repo ~functional:[ ("person", "phone") ]));
  (* Same page republished with an extra phone annotation makes the
     subject multi-valued. *)
  let a = annotate_alice () in
  M.Annotator.annotate_exn a ~node:[ 1; 2 ] ~tag:"phone";
  ignore (M.Repository.publish repo a);
  let conflicts = M.Inconsistency.find repo ~functional:[ ("person", "phone") ] in
  check_i "one conflict" 1 (List.length conflicts);
  let notes = M.Inconsistency.notifications conflicts in
  check_b "author notified" true
    (List.exists (fun (url, _) -> url = "http://u/alice.html") notes)

let () =
  Alcotest.run "mangrove"
    [ ("schema",
       [ Alcotest.test_case "structure" `Quick test_schema_structure;
         Alcotest.test_case "validation" `Quick test_schema_validation ]);
      ("annotator",
       [ Alcotest.test_case "nesting rules" `Quick test_annotator_nesting_rules;
         Alcotest.test_case "grouping" `Quick test_annotator_grouping;
         Alcotest.test_case "annotate by text" `Quick test_annotator_annotate_text;
         Alcotest.test_case "suggest tags" `Quick test_suggest_tags ]);
      ("repository",
       [ Alcotest.test_case "publish and query" `Quick test_publish_and_query;
         Alcotest.test_case "publish notifies" `Quick test_publish_notifies ]);
      ("cleaning", [ Alcotest.test_case "policies" `Quick test_cleaning_policies ]);
      ("apps",
       [ Alcotest.test_case "calendar" `Quick test_calendar_app;
         Alcotest.test_case "who's who + phones" `Quick test_who_is_who_and_phone_directory;
         Alcotest.test_case "paper database" `Quick test_paper_database;
         Alcotest.test_case "search" `Quick test_search_app;
         Alcotest.test_case "live view" `Quick test_live_view_instant_gratification ]);
      ("embed",
       [ Alcotest.test_case "roundtrip" `Quick test_embed_roundtrip;
         Alcotest.test_case "survives serialisation" `Quick
           test_embed_survives_serialisation;
         Alcotest.test_case "stable" `Quick test_embed_is_stable ]);
      ("dynamic_pages",
       [ Alcotest.test_case "course summary" `Quick test_dynamic_course_summary;
         Alcotest.test_case "live regeneration" `Quick test_dynamic_page_is_live;
         Alcotest.test_case "people directory" `Quick test_dynamic_people_directory ]);
      ("inconsistency",
       [ Alcotest.test_case "finder" `Quick test_inconsistency_finder ]) ]
