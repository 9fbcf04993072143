(* Tests for the corpus of structures and its statistics (Section 4). *)

module Sm = Corpus.Schema_model
module Cs = Corpus.Corpus_store

let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_f = Alcotest.(check (float 1e-9))

(* A small hand-built corpus with known statistics:
   - s1: course(title, instructor, room), ta(name, phone)
   - s2: class(name, teacher), assistant(name, phone)
   - s3: course(title, instructor), person(name, phone, email) *)
let corpus () =
  let c = Cs.create () in
  Cs.add_schema c
    (Sm.make ~name:"s1"
       [ Sm.relation "course"
           [ Sm.attribute ~values:[ "intro to databases" ] "title";
             Sm.attribute ~values:[ "alice anderson" ] "instructor";
             Sm.attribute ~values:[ "allen 301" ] "room" ];
         Sm.relation "ta" [ Sm.attribute "name"; Sm.attribute "phone" ] ]);
  Cs.add_schema c
    (Sm.make ~name:"s2"
       [ Sm.relation "class" [ Sm.attribute "name"; Sm.attribute "teacher" ];
         Sm.relation "assistant" [ Sm.attribute "name"; Sm.attribute "phone" ] ]);
  Cs.add_schema c
    (Sm.make ~name:"s3"
       [ Sm.relation "course" [ Sm.attribute "title"; Sm.attribute "instructor" ];
         Sm.relation "person"
           [ Sm.attribute "name"; Sm.attribute "phone"; Sm.attribute "email" ] ]);
  c

(* ------------------------------------------------------------------ *)
(* Schema model *)

let test_schema_model_basics () =
  let c = corpus () in
  let s1 = Option.get (Cs.schema c "s1") in
  check_i "element count" 7 (Sm.element_count s1);
  check_b "attrs of" true (Sm.attrs_of s1 "ta" = [ "name"; "phone" ]);
  check_i "corpus size" 3 (Cs.size c);
  check_i "all columns" 14 (List.length (Cs.all_columns c))

let test_schema_model_of_dtd () =
  let s = Sm.of_dtd ~name:"berkeley" Workload.University.berkeley_dtd in
  (* college(name), dept(name), course(title, size) become relations. *)
  check_b "course relation" true (Sm.attrs_of s "course" = [ "title"; "size" ]);
  check_b "schedule has no pcdata children" true (Sm.find_relation s "schedule" = None)

let test_duplicate_schema_rejected () =
  let c = corpus () in
  check_b "raises" true
    (try
       Cs.add_schema c (Sm.make ~name:"s1" []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Basic statistics *)

let test_term_usage () =
  let stats = Corpus.Basic_stats.build (corpus ()) in
  (* 'course' appears as a relation name in s1 and s3; with the synonym
     table, 'class' (s2) canonicalises to the same term: 3/3. *)
  let u = Corpus.Basic_stats.term_usage stats "course" in
  check_f "relation usage" 1.0 u.Corpus.Basic_stats.as_relation;
  (* 'phone' is an attribute in all three schemas. *)
  let p = Corpus.Basic_stats.term_usage stats "phone" in
  check_f "attribute usage" 1.0 p.Corpus.Basic_stats.as_attribute;
  (* 'room' only in s1. *)
  let r = Corpus.Basic_stats.term_usage stats "room" in
  check_f "room usage" (1.0 /. 3.0) r.Corpus.Basic_stats.as_attribute;
  (* data words recorded *)
  let d = Corpus.Basic_stats.term_usage stats "databases" in
  check_b "data usage positive" true (d.Corpus.Basic_stats.in_data > 0.0)

let test_variant_sensitivity () =
  let raw = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Raw (corpus ()) in
  (* Without synonyms, 'class' does not fold into 'course'. *)
  let u = Corpus.Basic_stats.term_usage raw "course" in
  check_f "raw usage" (2.0 /. 3.0) u.Corpus.Basic_stats.as_relation

let test_cooccurrence () =
  (* Stemmed (no synonyms): 'name' and 'title' stay distinct terms, so
     the expectations below are exact. *)
  let stats =
    Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed (corpus ())
  in
  (* name & phone co-occur in ta (s1), assistant (s2), person (s3):
     every relation containing canonical 'phone' also has 'name'. *)
  check_f "phone->name" 1.0 (Corpus.Basic_stats.cooccurrence stats "phone" "name");
  (* title co-occurs with instructor wherever title appears. *)
  check_f "title->instructor" 1.0
    (Corpus.Basic_stats.cooccurrence stats "title" "instructor");
  check_b "phone never with title" true
    (Corpus.Basic_stats.mutually_exclusive stats "phone" "title")

let test_cooccurring_attrs_ranked () =
  let stats =
    Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed (corpus ())
  in
  match Corpus.Basic_stats.cooccurring_attrs stats "phone" with
  | (top, f) :: _ ->
      check_b "name is top co-occurrer" true (String.length top > 0 && f > 0.0)
  | [] -> Alcotest.fail "expected co-occurrers"

let test_attr_clusters () =
  let stats =
    Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed (corpus ())
  in
  let clusters = Corpus.Basic_stats.attr_clusters stats ~threshold:0.7 in
  (* name+phone cluster together; title+instructor cluster together. *)
  let find_cluster_with term =
    let norm = Corpus.Basic_stats.normalize stats term in
    List.find_opt (List.mem norm) clusters
  in
  (match (find_cluster_with "phone", find_cluster_with "title") with
  | Some c1, Some c2 ->
      check_b "phone with name" true
        (List.mem (Corpus.Basic_stats.normalize stats "name") c1);
      check_b "title with instructor" true
        (List.mem (Corpus.Basic_stats.normalize stats "instructor") c2);
      check_b "clusters disjoint" true (c1 != c2)
  | _ -> Alcotest.fail "expected clusters")

let test_relation_name_for () =
  let stats = Corpus.Basic_stats.build (corpus ()) in
  match Corpus.Basic_stats.relation_name_for stats "phone" with
  | (_, f) :: _ -> check_b "has relation profile" true (f > 0.0)
  | [] -> Alcotest.fail "expected relation names"

(* ------------------------------------------------------------------ *)
(* Similar names (distributional) *)

let test_similar_names () =
  (* 'fee' and 'price' are lexically unrelated and not in the synonym
     table, but share their co-occurrence context: distributional
     similarity must catch them. *)
  let c = Cs.create () in
  Cs.add_schema c
    (Sm.make ~name:"d1"
       [ Sm.relation "course"
           [ Sm.attribute "title"; Sm.attribute "code"; Sm.attribute "fee" ] ]);
  Cs.add_schema c
    (Sm.make ~name:"d2"
       [ Sm.relation "course"
           [ Sm.attribute "title"; Sm.attribute "code"; Sm.attribute "price" ] ]);
  Cs.add_schema c
    (Sm.make ~name:"d3"
       [ Sm.relation "course" [ Sm.attribute "title"; Sm.attribute "code" ];
         Sm.relation "person" [ Sm.attribute "email"; Sm.attribute "phone" ] ]);
  let stats = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed c in
  let sim = Corpus.Similar_names.similarity stats "fee" "price" in
  check_b (Printf.sprintf "fee ~ price (%.2f)" sim) true (sim > 0.5);
  let dissim = Corpus.Similar_names.similarity stats "fee" "email" in
  check_b "fee !~ email" true (sim > dissim)

let test_most_similar_excludes_self () =
  let stats = Corpus.Basic_stats.build (corpus ()) in
  let result = Corpus.Similar_names.most_similar stats "phone" in
  check_b "no self" true
    (List.for_all
       (fun (t, _) -> t <> Corpus.Basic_stats.normalize stats "phone")
       result)

(* ------------------------------------------------------------------ *)
(* Composite statistics *)

let test_frequent_itemsets () =
  let c = corpus () in
  let stats = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed c in
  let itemsets = Corpus.Composite_stats.frequent_itemsets ~stats c ~min_support:3 in
  (* {name, phone} appears in 3 relations. *)
  check_b "name+phone frequent" true
    (List.exists
       (fun (it : Corpus.Composite_stats.itemset) ->
         it.Corpus.Composite_stats.support = 3
         && List.length it.Corpus.Composite_stats.attrs = 2)
       itemsets)

let test_support_and_same_relation () =
  let c = corpus () in
  let stats = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed c in
  check_i "support exact" 3 (Corpus.Composite_stats.support ~stats c [ "name"; "phone" ]);
  check_f "same relation always" 1.0
    (Corpus.Composite_stats.same_relation_probability ~stats c "name" "phone");
  (* phone and title: both present in all schemas, never together. *)
  check_f "never same relation" 0.0
    (Corpus.Composite_stats.same_relation_probability ~stats c "phone" "title")

let test_estimate () =
  let c = corpus () in
  let stats = Corpus.Basic_stats.build ~variant:Corpus.Basic_stats.Stemmed c in
  let exact = Corpus.Composite_stats.frequent_itemsets ~stats c ~min_support:2 in
  (* Exactly maintained itemset: zero error. *)
  check_f "maintained exact" 0.0
    (Corpus.Estimate.relative_error ~stats c ~exact [ "name"; "phone" ]);
  (* Unmaintained set: estimate exists and error is bounded. *)
  let err = Corpus.Estimate.relative_error ~stats c ~exact [ "title"; "room" ] in
  check_b "estimate bounded" true (err <= 1.0)

(* ------------------------------------------------------------------ *)
(* Schema parser *)

let test_schema_parser_parse () =
  let text =
    "# a comment\n\
     schema university\n\
     relation course(code, title, instructor)\n\
     relation person(name, email)\n\
     values course.title: intro to db | ancient history\n\
     join course.instructor = person.name\n"
  in
  let s = Corpus.Schema_parser.parse_exn text in
  check_b "name" true (s.Sm.schema_name = "university");
  check_i "two relations" 2 (List.length s.Sm.relations);
  check_b "attrs" true (Sm.attrs_of s "course" = [ "code"; "title"; "instructor" ]);
  check_i "one join" 1 (List.length s.Sm.joins);
  (match Sm.find_relation s "course" with
  | Some r ->
      let title = List.nth r.Sm.attributes 1 in
      check_i "two sample values" 2 (List.length title.Sm.sample_values)
  | None -> Alcotest.fail "course missing")

let test_schema_parser_errors () =
  check_b "missing schema line" true
    (Result.is_error (Corpus.Schema_parser.parse "relation r(a)"));
  check_b "bad relation" true
    (Result.is_error (Corpus.Schema_parser.parse "schema s\nrelation broken"));
  check_b "unknown directive" true
    (Result.is_error (Corpus.Schema_parser.parse "schema s\nfrobnicate"))

let test_schema_parser_roundtrip () =
  let original =
    Sm.make
      ~joins:[ ("a", "x", "b", "y") ]
      ~name:"round"
      [ Sm.relation "a" [ Sm.attribute ~values:[ "v1"; "v2" ] "x" ];
        Sm.relation "b" [ Sm.attribute "y"; Sm.attribute "z" ] ]
  in
  let reparsed = Corpus.Schema_parser.parse_exn (Corpus.Schema_parser.render original) in
  check_b "name" true (reparsed.Sm.schema_name = original.Sm.schema_name);
  check_b "relations" true
    (Sm.relation_names reparsed = Sm.relation_names original);
  check_b "joins" true (reparsed.Sm.joins = original.Sm.joins);
  (match Sm.find_relation reparsed "a" with
  | Some r ->
      check_b "values survive" true
        ((List.hd r.Sm.attributes).Sm.sample_values = [ "v1"; "v2" ])
  | None -> Alcotest.fail "relation a missing")

(* Hostile input: mutated schema files parse or fail with [Error],
   never raise. *)
let prop_schema_parser_never_raises =
  Fuzz.never_raises ~name:"parse never raises on mutations"
    ~alphabet:"():,.=|# \nabcrsx"
    [ "# a comment\n\
       schema university\n\
       relation course(code, title, instructor)\n\
       relation person(name, email)\n\
       values course.title: intro to db | ancient history\n\
       join course.instructor = person.name\n";
      Corpus.Schema_parser.render
        (Sm.make
           ~joins:[ ("a", "x", "b", "y") ]
           ~name:"round"
           [ Sm.relation "a" [ Sm.attribute ~values:[ "v1"; "v2" ] "x" ];
             Sm.relation "b" [ Sm.attribute "y"; Sm.attribute "z" ] ]) ]
    Corpus.Schema_parser.parse

let () =
  Alcotest.run "corpus"
    [ ("schema_model",
       [ Alcotest.test_case "basics" `Quick test_schema_model_basics;
         Alcotest.test_case "of_dtd" `Quick test_schema_model_of_dtd;
         Alcotest.test_case "duplicate rejected" `Quick test_duplicate_schema_rejected ]);
      ("basic_stats",
       [ Alcotest.test_case "term usage" `Quick test_term_usage;
         Alcotest.test_case "variant sensitivity" `Quick test_variant_sensitivity;
         Alcotest.test_case "cooccurrence" `Quick test_cooccurrence;
         Alcotest.test_case "cooccurring ranked" `Quick test_cooccurring_attrs_ranked;
         Alcotest.test_case "attr clusters" `Quick test_attr_clusters;
         Alcotest.test_case "relation name for" `Quick test_relation_name_for ]);
      ("similar_names",
       [ Alcotest.test_case "distributional" `Quick test_similar_names;
         Alcotest.test_case "excludes self" `Quick test_most_similar_excludes_self ]);
      ("schema_parser",
       [ Alcotest.test_case "parse" `Quick test_schema_parser_parse;
         Alcotest.test_case "errors" `Quick test_schema_parser_errors;
         Alcotest.test_case "roundtrip" `Quick test_schema_parser_roundtrip;
         QCheck_alcotest.to_alcotest prop_schema_parser_never_raises ]);
      ("composite",
       [ Alcotest.test_case "frequent itemsets" `Quick test_frequent_itemsets;
         Alcotest.test_case "support + same-relation" `Quick test_support_and_same_relation;
         Alcotest.test_case "estimate" `Quick test_estimate ]) ]
