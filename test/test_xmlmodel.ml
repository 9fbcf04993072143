(* Tests for the XML substrate: trees, DTD validation, paths, the
   Figure-4 template mapping language and query translation. *)

module Xml = Xmlmodel.Xml
module Dtd = Xmlmodel.Dtd
module Path = Xmlmodel.Path
module Template = Xmlmodel.Template
module Translate = Xmlmodel.Translate

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))
let leaf tag value = Xml.element tag [ Xml.text value ]

(* A small Berkeley-style schedule instance. *)
let berkeley =
  Xml.element "schedule"
    [ Xml.element "college"
        [ leaf "name" "engineering";
          Xml.element "dept"
            [ leaf "name" "cs";
              Xml.element "course" [ leaf "title" "databases"; leaf "size" "120" ];
              Xml.element "course" [ leaf "title" "compilers"; leaf "size" "60" ] ];
          Xml.element "dept"
            [ leaf "name" "ee";
              Xml.element "course" [ leaf "title" "circuits"; leaf "size" "80" ] ] ] ]

(* ------------------------------------------------------------------ *)
(* Xml *)

let test_xml_navigation () =
  check_i "node count" 25 (Xml.count_nodes berkeley);
  check_i "colleges" 1 (List.length (Xml.children_named berkeley "college"));
  check_i "all courses" 3 (List.length (Xml.descendants_named berkeley "course"));
  check_s "text content" "databases"
    (match Xml.descendants_named berkeley "title" with
    | t :: _ -> Xml.text_content t
    | [] -> "")

let test_xml_roundtrip_string () =
  let s = Xml.to_string berkeley in
  check_b "serialises" true (String.length s > 50);
  check_b "escapes" true
    (let x = Xml.to_string (leaf "a" "x < y & z") in
     let contains hay needle =
       let lh = String.length hay and ln = String.length needle in
       let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
       go 0
     in
     contains x "&lt;" && contains x "&amp;")

(* ------------------------------------------------------------------ *)
(* Dtd *)

let berkeley_dtd =
  Dtd.make ~root:"schedule"
    [ ("schedule", Dtd.Children [ ("college", Dtd.Many) ]);
      ("college", Dtd.Children [ ("name", Dtd.One); ("dept", Dtd.Many) ]);
      ("dept", Dtd.Children [ ("name", Dtd.One); ("course", Dtd.Many) ]);
      ("course", Dtd.Children [ ("title", Dtd.One); ("size", Dtd.One) ]);
      ("name", Dtd.Pcdata); ("title", Dtd.Pcdata); ("size", Dtd.Pcdata) ]

let test_dtd_validate_ok () =
  match Dtd.validate berkeley_dtd berkeley with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_dtd_validate_failures () =
  let bad_root = Xml.element "catalog" [] in
  check_b "wrong root" true (Result.is_error (Dtd.validate berkeley_dtd bad_root));
  let missing_name =
    Xml.element "schedule" [ Xml.element "college" [ Xml.element "dept" [ leaf "name" "x" ] ] ]
  in
  check_b "multiplicity violation" true
    (Result.is_error (Dtd.validate berkeley_dtd missing_name));
  let stray =
    Xml.element "schedule" [ Xml.element "zebra" [] ]
  in
  check_b "undeclared child" true (Result.is_error (Dtd.validate berkeley_dtd stray))

(* ------------------------------------------------------------------ *)
(* Path *)

let test_path_parse_and_select () =
  let p = Path.of_string "college/dept/course" in
  check_i "three courses" 3 (List.length (Path.select berkeley p));
  let p2 = Path.of_string "//course/title/text()" in
  check_b "text flag" true p2.Path.text;
  check_sl "titles"
    [ "databases"; "compilers"; "circuits" ]
    (Path.select_text berkeley (Path.of_string "//title"));
  let p3 = Path.of_string "//dept/name/text()" in
  check_sl "dept names" [ "cs"; "ee" ] (Path.select_text berkeley p3)

let test_path_append_roundtrip () =
  let a = Path.of_string "college/dept" in
  let b = Path.of_string "course/title/text()" in
  let ab = Path.append a b in
  check_sl "composition"
    [ "databases"; "compilers"; "circuits" ]
    (Path.select_text berkeley ab);
  check_s "to_string" "college/dept/course/title/text()" (Path.to_string ab)

let test_path_errors () =
  check_b "text() must be last" true
    (try ignore (Path.of_string "a/text()/b"); false
     with Invalid_argument _ -> true);
  check_b "empty path" true
    (try ignore (Path.of_string ""); false with Invalid_argument _ -> true);
  (* A bare text() is legal (current node's text). *)
  let p = Path.of_string "text()" in
  check_b "bare text" true (p.Path.text && p.Path.steps = [])

(* ------------------------------------------------------------------ *)
(* Template (Figure 4) *)

let fig4 = Workload.University.berkeley_to_mit

let test_template_fig4 () =
  let out = Template.apply_single fig4 ~docs:[ ("Berkeley.xml", berkeley) ] in
  check_s "root" "catalog" (Option.value ~default:"" (Xml.name out));
  (* One MIT <course> per Berkeley dept. *)
  check_i "two courses" 2 (List.length (Xml.children_named out "course"));
  let subjects = Xml.descendants_named out "subject" in
  check_i "three subjects" 3 (List.length subjects);
  check_sl "enrollments preserved"
    [ "120"; "60"; "80" ]
    (Path.select_text (Xml.element "~w" [ out ])
       (Path.of_string "catalog/course/subject/enrollment/text()"));
  (* Output conforms to the MIT DTD. *)
  (match Dtd.validate Workload.University.mit_dtd out with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("MIT DTD: " ^ msg))

let test_template_unknown_doc () =
  check_b "raises" true
    (try
       ignore (Template.apply fig4 ~docs:[]);
       false
     with Invalid_argument _ -> true)

let test_template_literal_nodes () =
  let tpl =
    Template.template
      (Template.elem "greeting" [ Template.Literal "hello " ;
                                  Template.Literal "world" ])
  in
  let out = Template.apply_single tpl ~docs:[] in
  check_s "literals concatenated" "hello world" (Xml.text_content out)

let test_template_target_elements () =
  check_sl "emitted tags"
    [ "catalog"; "course"; "name"; "subject"; "title"; "enrollment" ]
    (Template.target_dtd_elements fig4)

(* ------------------------------------------------------------------ *)
(* Translate *)

let test_translate_resolve () =
  let target = Path.of_string "catalog/course/subject/title/text()" in
  match Translate.resolve fig4 target with
  | [ r ] ->
      check_s "doc" "Berkeley.xml" r.Translate.doc;
      check_s "source path" "college/dept/course/title/text()"
        (Path.to_string r.Translate.path)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 resolution, got %d" (List.length rs))

let test_translate_equivalence () =
  let docs = [ ("Berkeley.xml", berkeley) ] in
  List.iter
    (fun path ->
      check_b path true
        (Translate.equivalent_on fig4 ~docs (Path.of_string path)))
    [ "catalog/course/subject/title/text()";
      "catalog/course/subject/enrollment/text()";
      "catalog/course/name/text()" ]

let test_translate_random_instances () =
  let prng = Util.Prng.create 77 in
  for _ = 1 to 10 do
    let inst =
      Workload.University.berkeley_instance prng ~colleges:2 ~depts:2 ~courses:3
    in
    check_b "random instance equivalence" true
      (Translate.equivalent_on fig4
         ~docs:[ ("Berkeley.xml", inst) ]
         (Path.of_string "catalog/course/subject/enrollment/text()"))
  done

(* ------------------------------------------------------------------ *)
(* Xml PDMS *)

(* A second mapping: MIT's catalog republished as a flat reading list
   at a third peer (chains: berkeley -> mit -> lib). *)
let mit_to_lib =
  Template.template
    (Template.elem "readinglist"
       [ Template.elem
           ~binding:
             ("s", Template.Document "mit.xml",
              Path.of_string "course/subject")
           "entry"
           [ Template.elem "label"
               [ Template.Text_from ("s", Path.of_string "title/text()") ] ] ])

let xml_pdms () =
  let net = Xmlmodel.Xml_pdms.create () in
  Xmlmodel.Xml_pdms.add_peer net ~name:"berkeley"
    ~dtd:Workload.University.berkeley_dtd berkeley;
  let mit_doc =
    Template.apply_single fig4 ~docs:[ ("Berkeley.xml", berkeley) ]
  in
  (* MIT also has one local course of its own. *)
  let mit_doc =
    match mit_doc with
    | Xml.Element (tag, attrs, children) ->
        Xml.Element
          ( tag, attrs,
            children
            @ [ Xml.element "course"
                  [ leaf "name" "eecs";
                    Xml.element "subject"
                      [ leaf "title" "sicp"; leaf "enrollment" "300" ] ] ] )
    | other -> other
  in
  Xmlmodel.Xml_pdms.add_peer net ~name:"mit" ~dtd:Workload.University.mit_dtd mit_doc;
  Xmlmodel.Xml_pdms.add_peer net ~name:"lib" (Xml.element "readinglist" []);
  Xmlmodel.Xml_pdms.add_mapping net ~source:"berkeley" ~target:"mit" fig4;
  Xmlmodel.Xml_pdms.add_mapping net ~source:"mit" ~target:"lib" mit_to_lib;
  net

let test_xml_pdms_one_hop () =
  let net = xml_pdms () in
  let titles =
    Xmlmodel.Xml_pdms.query net ~at:"mit"
      (Path.of_string "catalog/course/subject/title/text()")
  in
  (* MIT's own subjects (3 mapped + 1 local) plus Berkeley's titles via
     translation — same values, deduplicated. *)
  check_sl "titles at mit"
    [ "circuits"; "compilers"; "databases"; "sicp" ]
    titles;
  (* Local-only is a strict subset. *)
  let local =
    Xmlmodel.Xml_pdms.query_local net ~at:"mit"
      (Path.of_string "catalog/course/subject/title/text()")
  in
  check_i "local has them all already (materialised)" 4 (List.length local)

let test_xml_pdms_two_hops () =
  let net = xml_pdms () in
  (* The reading list peer holds NO local entries; everything arrives
     through mit (and transitively berkeley). *)
  let labels =
    Xmlmodel.Xml_pdms.query net ~at:"lib"
      (Path.of_string "readinglist/entry/label/text()")
  in
  check_sl "labels via two-hop translation"
    [ "circuits"; "compilers"; "databases"; "sicp" ]
    labels;
  check_i "nothing local" 0
    (List.length
       (Xmlmodel.Xml_pdms.query_local net ~at:"lib"
          (Path.of_string "readinglist/entry/label/text()")))

let test_xml_pdms_reachability_and_validation () =
  let net = xml_pdms () in
  check_sl "lib reaches all" [ "berkeley"; "lib"; "mit" ]
    (Xmlmodel.Xml_pdms.reachable net "lib");
  check_sl "berkeley reaches only itself" [ "berkeley" ]
    (Xmlmodel.Xml_pdms.reachable net "berkeley");
  check_b "invalid doc rejected" true
    (try
       Xmlmodel.Xml_pdms.add_peer net ~name:"bad"
         ~dtd:Workload.University.mit_dtd (Xml.element "zebra" []);
       false
     with Invalid_argument _ -> true)

let test_resolve_chain () =
  let resolutions =
    Translate.resolve_chain [ fig4; mit_to_lib ]
      (Path.of_string "readinglist/entry/label/text()")
  in
  match resolutions with
  | [ r ] ->
      check_s "berkeley location" "college/dept/course/title/text()"
        (Path.to_string r.Translate.path)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1, got %d" (List.length rs))

(* ------------------------------------------------------------------ *)
(* Xml parser *)

let test_parser_basic () =
  let doc = Xmlmodel.Xml_parser.parse_exn
    "<a x=\"1\"><b>hello</b><c/><b>bye &amp; more</b></a>"
  in
  check_s "root" "a" (Option.value ~default:"" (Xml.name doc));
  check_b "attr" true (Xml.attr doc "x" = Some "1");
  check_i "two bs" 2 (List.length (Xml.children_named doc "b"));
  check_s "entity decoded" "bye & more"
    (match Xml.children_named doc "b" with
    | [ _; b2 ] -> Xml.text_content b2
    | _ -> "")

let test_parser_declaration_and_comments () =
  let doc = Xmlmodel.Xml_parser.parse_exn
    "<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><x>1</x></r>"
  in
  check_i "comment skipped" 1 (List.length (Xml.children doc))

let test_parser_errors () =
  check_b "mismatched" true
    (Result.is_error (Xmlmodel.Xml_parser.parse "<a><b></a></b>"));
  check_b "unterminated" true
    (Result.is_error (Xmlmodel.Xml_parser.parse "<a><b>"));
  check_b "trailing" true
    (Result.is_error (Xmlmodel.Xml_parser.parse "<a/><b/>"));
  check_b "empty" true (Result.is_error (Xmlmodel.Xml_parser.parse "   "))

let test_parser_roundtrip_berkeley () =
  let prng = Util.Prng.create 9 in
  for _ = 1 to 5 do
    let inst =
      Workload.University.berkeley_instance prng ~colleges:2 ~depts:2 ~courses:2
    in
    check_b "print-parse roundtrip" true
      (Xml.equal inst (Xmlmodel.Xml_parser.roundtrip inst))
  done

(* Open elements live on an explicit stack, not the call stack, so
   depth costs time linear in the input. *)
let test_parser_deep_nesting () =
  let depth = 1_000_000 in
  let buf = Buffer.create ((7 * depth) + 1) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_char buf 'x';
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  let rec measure d = function
    | Xml.Element ("a", [], [ child ]) -> measure (d + 1) child
    | Xml.Text "x" -> d
    | _ -> -1
  in
  check_i "depth" depth
    (measure 0 (Xmlmodel.Xml_parser.parse_exn (Buffer.contents buf)))

(* Hostile input: mutated documents parse or fail with [Error], never
   raise. *)
let prop_parser_never_raises =
  Fuzz.never_raises ~name:"parse never raises on mutations"
    ~alphabet:"<>/=!?-'\"&;# \nabx"
    [ "<a x=\"1\"><b>hello</b><c/><b>bye &amp; more</b></a>";
      "<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><x>1</x></r>";
      "<!DOCTYPE r><r>\n  <k a='&quot;'>1 &lt; 2</k>\n  <k/>\n</r>\n";
      Xml.to_string
        (Workload.University.berkeley_instance (Util.Prng.create 9)
           ~colleges:1 ~depts:2 ~courses:2) ]
    Xmlmodel.Xml_parser.parse

let () =
  Alcotest.run "xmlmodel"
    [ ("xml",
       [ Alcotest.test_case "navigation" `Quick test_xml_navigation;
         Alcotest.test_case "serialisation" `Quick test_xml_roundtrip_string ]);
      ("dtd",
       [ Alcotest.test_case "validate ok" `Quick test_dtd_validate_ok;
         Alcotest.test_case "validate failures" `Quick test_dtd_validate_failures ]);
      ("path",
       [ Alcotest.test_case "parse and select" `Quick test_path_parse_and_select;
         Alcotest.test_case "append" `Quick test_path_append_roundtrip ]);
      ("path-errors", [ Alcotest.test_case "guards" `Quick test_path_errors ]);
      ("template",
       [ Alcotest.test_case "figure 4" `Quick test_template_fig4;
         Alcotest.test_case "unknown doc" `Quick test_template_unknown_doc;
         Alcotest.test_case "literal nodes" `Quick test_template_literal_nodes;
         Alcotest.test_case "target elements" `Quick test_template_target_elements ]);
      ("translate",
       [ Alcotest.test_case "resolve" `Quick test_translate_resolve;
         Alcotest.test_case "equivalence" `Quick test_translate_equivalence;
         Alcotest.test_case "random instances" `Quick test_translate_random_instances ]);
      ("xml_pdms",
       [ Alcotest.test_case "one hop" `Quick test_xml_pdms_one_hop;
         Alcotest.test_case "two hops" `Quick test_xml_pdms_two_hops;
         Alcotest.test_case "reachability + validation" `Quick
           test_xml_pdms_reachability_and_validation;
         Alcotest.test_case "resolve_chain" `Quick test_resolve_chain ]);
      ("xml_parser",
       [ Alcotest.test_case "basic" `Quick test_parser_basic;
         Alcotest.test_case "declaration + comments" `Quick
           test_parser_declaration_and_comments;
         Alcotest.test_case "errors" `Quick test_parser_errors;
         Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip_berkeley;
         Alcotest.test_case "deep nesting" `Quick test_parser_deep_nesting;
         QCheck_alcotest.to_alcotest prop_parser_never_raises ]) ]
