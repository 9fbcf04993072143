(* Unit and property tests for the util substrate. *)

let check_s = Alcotest.(check string)
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)
let check_sl = Alcotest.(check (list string))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Util.Prng.create 42 and b = Util.Prng.create 42 in
  for _ = 1 to 50 do
    check_i "same stream" (Util.Prng.int a 1000) (Util.Prng.int b 1000)
  done

let test_prng_split_independent () =
  let a = Util.Prng.create 7 in
  let c = Util.Prng.split a in
  let xs = List.init 20 (fun _ -> Util.Prng.int a 100) in
  let ys = List.init 20 (fun _ -> Util.Prng.int c 100) in
  check_b "streams differ" true (xs <> ys)

let test_prng_bounds () =
  let t = Util.Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int t 7 in
    check_b "in range" true (x >= 0 && x < 7);
    let y = Util.Prng.int_in t 3 5 in
    check_b "in closed range" true (y >= 3 && y <= 5)
  done

let test_prng_weighted () =
  let t = Util.Prng.create 9 in
  for _ = 1 to 200 do
    let x = Util.Prng.weighted t [ ("a", 1.0); ("b", 0.0); ("c", 2.0) ] in
    check_b "never zero-weight" true (x <> "b")
  done

let test_prng_gaussian_moments () =
  let t = Util.Prng.create 17 in
  let xs = List.init 4000 (fun _ -> Util.Prng.gaussian t ~mean:10.0 ~stddev:2.0) in
  check_b "mean near 10" true (Float.abs (Util.Stats.mean xs -. 10.0) < 0.2);
  check_b "stddev near 2" true (Float.abs (Util.Stats.stddev xs -. 2.0) < 0.2)

let test_prng_guards () =
  let t = Util.Prng.create 1 in
  check_b "int 0 rejected" true
    (try ignore (Util.Prng.int t 0); false with Invalid_argument _ -> true);
  check_b "empty pick rejected" true
    (try ignore (Util.Prng.pick t []); false with Invalid_argument _ -> true);
  check_b "weighted all-zero rejected" true
    (try ignore (Util.Prng.weighted t [ ("a", 0.0) ]); false
     with Invalid_argument _ -> true);
  check_b "empty range rejected" true
    (try ignore (Util.Prng.int_in t 5 4); false with Invalid_argument _ -> true)

let test_prng_zipf_range () =
  let t = Util.Prng.create 11 in
  for _ = 1 to 500 do
    let r = Util.Prng.zipf t ~n:10 ~s:1.0 in
    check_b "rank in range" true (r >= 1 && r <= 10)
  done

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, xs) ->
      let t = Util.Prng.create seed in
      let shuffled = Util.Prng.shuffle t xs in
      List.sort compare shuffled = List.sort compare xs)

let prop_sample_size =
  QCheck.Test.make ~name:"sample size and membership" ~count:200
    QCheck.(triple small_int small_nat (small_list small_int))
    (fun (seed, k, xs) ->
      let t = Util.Prng.create seed in
      let s = Util.Prng.sample t k xs in
      List.length s = min k (List.length xs)
      && List.for_all (fun x -> List.mem x xs) s)

(* ------------------------------------------------------------------ *)
(* Tokenize *)

let test_tokenize_identifiers () =
  check_sl "camelCase" [ "course"; "title" ] (Util.Tokenize.split_identifier "courseTitle");
  check_sl "snake_case" [ "course"; "title" ] (Util.Tokenize.split_identifier "course_title");
  check_sl "dashes" [ "course"; "title" ] (Util.Tokenize.split_identifier "COURSE-TITLE");
  check_sl "acronym" [ "xml"; "file" ] (Util.Tokenize.split_identifier "XMLFile");
  check_sl "digits split" [ "phone" ] (Util.Tokenize.split_identifier "phone2");
  check_sl "empty" [] (Util.Tokenize.split_identifier "");
  check_s "normalize" "course_title" (Util.Tokenize.normalize "CourseTitle")

let test_tokenize_words () =
  check_sl "punctuation"
    [ "intro"; "to"; "databases"; "cse444" ]
    (Util.Tokenize.words "Intro to Databases (CSE444)!")

(* ------------------------------------------------------------------ *)
(* Stemmer: classic Porter vectors *)

let porter_vectors =
  [ ("caresses", "caress"); ("ponies", "poni"); ("ties", "ti");
    ("cats", "cat"); ("agreed", "agre"); ("feed", "feed");
    ("plastered", "plaster"); ("motoring", "motor"); ("sized", "size");
    ("hopping", "hop"); ("failing", "fail"); ("filing", "file");
    ("happy", "happi"); ("sky", "sky"); ("relational", "relat");
    ("conditional", "condit"); ("rational", "ration");
    ("digitizer", "digit"); ("operator", "oper");
    ("feudalism", "feudal"); ("decisiveness", "decis");
    ("formaliti", "formal"); ("formative", "form");
    ("electriciti", "electr"); ("hopeful", "hope"); ("goodness", "good");
    ("allowance", "allow"); ("inference", "infer"); ("adjustable", "adjust");
    ("replacement", "replac"); ("adoption", "adopt"); ("activate", "activ");
    ("effective", "effect"); ("probate", "probat"); ("rate", "rate");
    ("controll", "control"); ("roll", "roll"); ("cease", "ceas") ]

let test_stemmer_vectors () =
  List.iter
    (fun (input, expected) -> check_s input expected (Util.Stemmer.stem input))
    porter_vectors

let test_stemmer_short_words () =
  check_s "is" "is" (Util.Stemmer.stem "is");
  check_s "be" "be" (Util.Stemmer.stem "be");
  check_s "a" "a" (Util.Stemmer.stem "a")

let prop_stemmer_idempotent_on_output_length =
  QCheck.Test.make ~name:"stem never lengthens much" ~count:300
    QCheck.(string_small_of QCheck.Gen.(char_range 'a' 'z'))
    (fun w -> String.length (Util.Stemmer.stem w) <= String.length w + 1)

(* ------------------------------------------------------------------ *)
(* Synonyms *)

let test_synonyms () =
  let t = Util.Synonyms.university_domain in
  check_b "course~class" true (Util.Synonyms.synonymous t "course" "class");
  check_b "cross-language" true (Util.Synonyms.synonymous t "course" "corso");
  check_b "not synonyms" false (Util.Synonyms.synonymous t "course" "phone");
  check_s "unknown is itself" "zebra" (Util.Synonyms.canonical t "zebra");
  check_b "expand contains self" true (List.mem "course" (Util.Synonyms.expand t "course"))

let test_synonyms_merge () =
  let t = Util.Synonyms.of_groups [ [ "a"; "b" ]; [ "b"; "c" ] ] in
  check_b "transitive merge" true (Util.Synonyms.synonymous t "a" "c")

(* ------------------------------------------------------------------ *)
(* Counter *)

let test_counter () =
  let c = Util.Counter.create () in
  Util.Counter.add c "x";
  Util.Counter.add c "x";
  Util.Counter.add ~weight:3.0 c "y";
  Alcotest.(check (float 1e-9)) "count x" 2.0 (Util.Counter.count c "x");
  Alcotest.(check (float 1e-9)) "total" 5.0 (Util.Counter.total c);
  check_i "distinct" 2 (Util.Counter.distinct c);
  (match Util.Counter.top c 1 with
  | [ ("y", 3.0) ] -> ()
  | _ -> Alcotest.fail "top-1 should be y");
  Alcotest.(check (float 1e-9)) "frequency" 0.4 (Util.Counter.frequency c "x")

let test_counter_merge () =
  let a = Util.Counter.create () and b = Util.Counter.create () in
  Util.Counter.add a "x";
  Util.Counter.add b "x";
  Util.Counter.add b "z";
  let m = Util.Counter.merge a b in
  Alcotest.(check (float 1e-9)) "merged x" 2.0 (Util.Counter.count m "x");
  Alcotest.(check (float 1e-9)) "merged z" 1.0 (Util.Counter.count m "z");
  Alcotest.(check (float 1e-9)) "a untouched" 1.0 (Util.Counter.count a "x")

(* ------------------------------------------------------------------ *)
(* Strdist *)

let test_levenshtein () =
  check_i "kitten/sitting" 3 (Util.Strdist.levenshtein "kitten" "sitting");
  check_i "empty" 3 (Util.Strdist.levenshtein "" "abc");
  check_i "equal" 0 (Util.Strdist.levenshtein "same" "same")

let prop_levenshtein_symmetric =
  QCheck.Test.make ~name:"levenshtein symmetric" ~count:200
    QCheck.(pair (string_small_of QCheck.Gen.(char_range 'a' 'e'))
              (string_small_of QCheck.Gen.(char_range 'a' 'e')))
    (fun (a, b) -> Util.Strdist.levenshtein a b = Util.Strdist.levenshtein b a)

let prop_levenshtein_identity =
  QCheck.Test.make ~name:"levenshtein identity" ~count:100
    QCheck.(string_small_of QCheck.Gen.(char_range 'a' 'e'))
    (fun a -> Util.Strdist.levenshtein a a = 0)

let prop_ngram_sim_bounds =
  QCheck.Test.make ~name:"ngram_sim in [0,1]" ~count:200
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let s = Util.Strdist.ngram_sim a b in
      s >= 0.0 && s <= 1.0)

let test_jaccard () =
  Alcotest.(check (float 1e-9)) "overlap" 0.5
    (Util.Strdist.jaccard [ "a"; "b" ] [ "b"; "c" ] *. 1.5);
  Alcotest.(check (float 1e-9)) "both empty" 1.0 (Util.Strdist.jaccard [] [])

(* ------------------------------------------------------------------ *)
(* Tfidf *)

let test_tfidf () =
  let docs = [ [ "course"; "title" ]; [ "course"; "phone" ]; [ "talk" ] ] in
  let c = Util.Tfidf.build docs in
  check_i "num docs" 3 (Util.Tfidf.num_docs c);
  let self = Util.Tfidf.similarity c [ "course"; "title" ] [ "course"; "title" ] in
  Alcotest.(check (float 1e-6)) "self similarity" 1.0 self;
  let rel = Util.Tfidf.similarity c [ "course"; "title" ] [ "course"; "phone" ] in
  let unrel = Util.Tfidf.similarity c [ "course"; "title" ] [ "talk" ] in
  check_b "related beats unrelated" true (rel > unrel);
  (* The rarer term is worth more. *)
  check_b "idf favours rare terms" true (Util.Tfidf.idf c "talk" > Util.Tfidf.idf c "course")

(* The pre-heap map-based cosine, kept as a reference model: the
   two-pointer merge must agree with it bit for bit on sorted vectors
   and the fallback must reproduce it on arbitrary ones. *)
let cosine_reference va vb =
  let module Smap = Map.Make (String) in
  let mb = List.fold_left (fun acc (k, v) -> Smap.add k v acc) Smap.empty vb in
  List.fold_left
    (fun acc (k, v) ->
      match Smap.find_opt k mb with None -> acc | Some w -> acc +. (v *. w))
    0.0 va

let sparse_vector_gen =
  QCheck.Gen.(
    let tok = map (Printf.sprintf "t%02d") (int_bound 30) in
    let weight = map (fun x -> float_of_int x /. 7.0) (int_range (-20) 20) in
    map
      (fun kvs ->
        (* unique tokens, ascending: what Tfidf.vectorize emits *)
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) kvs)
      (small_list (pair tok weight)))

let prop_cosine_merge_matches_reference =
  QCheck.Test.make ~name:"cosine two-pointer = map reference (sorted)"
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair sparse_vector_gen sparse_vector_gen)
       ~print:(fun (a, b) ->
         let pp v =
           String.concat ";"
             (List.map (fun (k, w) -> Printf.sprintf "%s:%g" k w) v)
         in
         pp a ^ " | " ^ pp b))
    (fun (va, vb) ->
      (* bit-for-bit, not approximately *)
      Int64.equal
        (Int64.bits_of_float (Util.Tfidf.cosine va vb))
        (Int64.bits_of_float (cosine_reference va vb)))

let test_cosine_unsorted_fallback () =
  (* Counter.items-style input: ordered by count, not token. *)
  let va = [ ("zeta", 2.0); ("alpha", 1.0) ] in
  let vb = [ ("alpha", 3.0); ("zeta", 0.5); ("mid", 9.0) ] in
  Alcotest.(check (float 1e-12))
    "fallback equals reference" (cosine_reference va vb)
    (Util.Tfidf.cosine va vb);
  Alcotest.(check (float 1e-12)) "4.0" 4.0 (Util.Tfidf.cosine va vb)

let test_tfidf_of_counts () =
  let docs = [ [ "course"; "title" ]; [ "course"; "phone" ]; [ "talk" ] ] in
  let built = Util.Tfidf.build docs in
  let merged =
    Util.Tfidf.of_counts ~n:3
      [ ("course", 2); ("title", 1); ("phone", 1); ("talk", 1) ]
  in
  List.iter
    (fun tok ->
      check_b
        (Printf.sprintf "idf %s identical" tok)
        true
        (Int64.equal
           (Int64.bits_of_float (Util.Tfidf.idf built tok))
           (Int64.bits_of_float (Util.Tfidf.idf merged tok))))
    [ "course"; "title"; "phone"; "talk"; "absent" ]

(* ------------------------------------------------------------------ *)
(* Topk *)

let test_topk () =
  let t = Util.Topk.create 3 in
  List.iter (fun (s, x) -> Util.Topk.add t s x)
    [ (1.0, "a"); (5.0, "b"); (3.0, "c"); (4.0, "d"); (0.5, "e") ];
  let items = List.map snd (Util.Topk.to_list t) in
  check_sl "best three in order" [ "b"; "d"; "c" ] items;
  (match Util.Topk.min_score t with
  | Some s -> Alcotest.(check (float 1e-9)) "min score" 3.0 s
  | None -> Alcotest.fail "expected full accumulator")

(* Sort-free reference model: the pre-heap sorted-list implementation
   (insert after equal scores, truncate to k). The heap must reproduce
   its output — order and tie-breaks — for any insertion sequence. *)
let model_topk k xs =
  let insert l (score, item) =
    let rec go = function
      | [] -> [ (score, item) ]
      | (s, _) :: _ as l when score > s -> (score, item) :: l
      | hd :: tl -> hd :: go tl
    in
    List.filteri (fun i _ -> i < k) (go l)
  in
  List.fold_left insert [] xs

let model_min_score k l =
  if List.length l < k then None
  else Some (fst (List.nth l (List.length l - 1)))

let prop_topk_model =
  QCheck.Test.make ~name:"topk heap = sorted-list model (ties included)"
    ~count:500
    QCheck.(pair (int_range 1 8) (small_list (int_bound 4)))
    (fun (k, raw) ->
      (* scores drawn from 5 values to force plenty of ties; items are
         insertion indices so tie-break order is observable *)
      let xs = List.mapi (fun i s -> (float_of_int s, i)) raw in
      let t = Util.Topk.create k in
      List.iter (fun (s, x) -> Util.Topk.add t s x) xs;
      let expect = model_topk k xs in
      Util.Topk.to_list t = expect
      && Util.Topk.min_score t = model_min_score k expect)

let test_topk_create_guard () =
  check_b "k = 0 rejected" true
    (try
       ignore (Util.Topk.create 0);
       false
     with Invalid_argument _ -> true)

let prop_topk_sorted =
  QCheck.Test.make ~name:"topk sorted descending" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun xs ->
      let t = Util.Topk.create 5 in
      List.iter (fun x -> Util.Topk.add t x x) xs;
      let scores = List.map fst (Util.Topk.to_list t) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a >= b && sorted rest
        | _ -> true
      in
      sorted scores && List.length scores = min 5 (List.length xs))

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_union_find () =
  let uf = Util.Union_find.create () in
  Util.Union_find.union uf "a" "b";
  Util.Union_find.union uf "c" "d";
  check_b "a~b" true (Util.Union_find.connected uf "a" "b");
  check_b "a!~c" false (Util.Union_find.connected uf "a" "c");
  Util.Union_find.union uf "b" "c";
  check_b "a~d transitively" true (Util.Union_find.connected uf "a" "d");
  check_i "one group of 4" 1
    (List.length (List.filter (fun g -> List.length g = 4) (Util.Union_find.groups uf)))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Util.Stats.mean xs);
  Alcotest.(check (float 1e-9)) "median" 3.0 (Util.Stats.median xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Util.Stats.minimum xs);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Util.Stats.maximum xs);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Util.Stats.stddev xs);
  check_i "histogram bins" 5 (List.length (Util.Stats.histogram ~bins:5 xs));
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Util.Stats.histogram ~bins:3 xs) in
  check_i "histogram covers all" 5 total

(* ------------------------------------------------------------------ *)
(* Ascii_table *)

let test_ascii_table () =
  let t = Util.Ascii_table.create [ "n"; "value" ] in
  Util.Ascii_table.add_row t [ "1"; "one" ];
  Util.Ascii_table.add_row t [ "2" ];
  let rendered = Util.Ascii_table.render t in
  check_b "contains header" true
    (String.length rendered > 0
    && List.length (String.split_on_char '\n' rendered) = 4)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [ ("prng",
       [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
         Alcotest.test_case "split independent" `Quick test_prng_split_independent;
         Alcotest.test_case "bounds" `Quick test_prng_bounds;
         Alcotest.test_case "weighted" `Quick test_prng_weighted;
         Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
         Alcotest.test_case "guards" `Quick test_prng_guards;
         Alcotest.test_case "zipf range" `Quick test_prng_zipf_range ]
       @ qc [ prop_shuffle_is_permutation; prop_sample_size ]);
      ("tokenize",
       [ Alcotest.test_case "identifiers" `Quick test_tokenize_identifiers;
         Alcotest.test_case "words" `Quick test_tokenize_words ]);
      ("stemmer",
       [ Alcotest.test_case "porter vectors" `Quick test_stemmer_vectors;
         Alcotest.test_case "short words" `Quick test_stemmer_short_words ]
       @ qc [ prop_stemmer_idempotent_on_output_length ]);
      ("synonyms",
       [ Alcotest.test_case "university domain" `Quick test_synonyms;
         Alcotest.test_case "group merge" `Quick test_synonyms_merge ]);
      ("counter",
       [ Alcotest.test_case "basic" `Quick test_counter;
         Alcotest.test_case "merge" `Quick test_counter_merge ]);
      ("strdist",
       [ Alcotest.test_case "levenshtein" `Quick test_levenshtein;
         Alcotest.test_case "jaccard" `Quick test_jaccard ]
       @ qc [ prop_levenshtein_symmetric; prop_levenshtein_identity; prop_ngram_sim_bounds ]);
      ("tfidf",
       [ Alcotest.test_case "ranking" `Quick test_tfidf;
         Alcotest.test_case "unsorted cosine fallback" `Quick
           test_cosine_unsorted_fallback;
         Alcotest.test_case "of_counts = build" `Quick test_tfidf_of_counts ]
       @ qc [ prop_cosine_merge_matches_reference ]);
      ("topk",
       [ Alcotest.test_case "basic" `Quick test_topk;
         Alcotest.test_case "create guard" `Quick test_topk_create_guard ]
       @ qc [ prop_topk_sorted; prop_topk_model ]);
      ("union_find", [ Alcotest.test_case "basic" `Quick test_union_find ]);
      ("stats", [ Alcotest.test_case "descriptive" `Quick test_stats ]);
      ("ascii_table", [ Alcotest.test_case "render" `Quick test_ascii_table ]) ]
