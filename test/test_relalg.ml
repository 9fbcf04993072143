(* Tests for the relational substrate. *)

open Relalg

let v_i i = Value.Int i
let v_s s = Value.Str s
let insert r row = Relation.apply r (Relation.Delta.add row)
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let people () =
  let r = Relation.create (Schema.make "people" [ "name"; "dept"; "age" ]) in
  insert r [| v_s "ada"; v_s "cs"; v_i 36 |];
  insert r [| v_s "bob"; v_s "cs"; v_i 41 |];
  insert r [| v_s "carol"; v_s "ee"; v_i 29 |];
  r

let depts () =
  let r = Relation.create (Schema.make "depts" [ "dept"; "building" ]) in
  insert r [| v_s "cs"; v_s "allen" |];
  insert r [| v_s "ee"; v_s "meb" |];
  r

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_parse () =
  check_b "int" true (Value.equal (Value.of_string "42") (v_i 42));
  check_b "float" true (Value.equal (Value.of_string "4.5") (Value.Float 4.5));
  check_b "bool" true (Value.equal (Value.of_string "true") (Value.Bool true));
  check_b "string" true (Value.equal (Value.of_string "cse444") (v_s "cse444"))

(* ------------------------------------------------------------------ *)
(* Schema *)

let test_schema_basics () =
  let s = Schema.make "r" [ "a"; "b"; "c" ] in
  check_i "arity" 3 (Schema.arity s);
  check_i "index" 1 (Schema.index_of s "b");
  check_b "has" true (Schema.has_attr s "c");
  check_b "missing" false (Schema.has_attr s "z")

let test_schema_duplicate_attr () =
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Schema.make: duplicate attribute in r") (fun () ->
      ignore (Schema.make "r" [ "a"; "a" ]))

(* ------------------------------------------------------------------ *)
(* Relation *)

let test_relation_insert_and_find () =
  let r = people () in
  check_i "cardinality" 3 (Relation.cardinality r);
  check_i "index lookup" 2 (List.length (Relation.find_by r 1 (v_s "cs")));
  (* Index must see rows inserted after it was built. *)
  insert r [| v_s "dan"; v_s "cs"; v_i 50 |];
  check_i "index after insert" 3 (List.length (Relation.find_by r 1 (v_s "cs")))

let test_relation_arity_mismatch () =
  let r = people () in
  check_b "raises" true
    (try
       insert r [| v_s "x" |];
       false
     with Invalid_argument _ -> true)

let test_relation_apply_multiset () =
  let r = Relation.create (Schema.make "r" [ "a" ]) in
  insert r [| v_i 1 |];
  check_b "mem" true (Relation.mem r [| v_i 1 |]);
  insert r [| v_i 1 |];
  check_i "bag keeps both copies" 2 (Relation.cardinality r);
  Relation.apply r (Relation.Delta.remove [| v_i 1 |]);
  check_i "remove takes one copy" 1 (Relation.cardinality r);
  check_b "still a member" true (Relation.mem r [| v_i 1 |]);
  Relation.apply r (Relation.Delta.remove [| v_i 1 |]);
  check_i "empty" 0 (Relation.cardinality r);
  check_b "gone" false (Relation.mem r [| v_i 1 |]);
  (* Removing an absent tuple is a silent no-op. *)
  Relation.apply r (Relation.Delta.remove [| v_i 9 |]);
  check_i "still empty" 0 (Relation.cardinality r)

let test_relation_bulk_insert_index () =
  let schema = Schema.make "r" [ "a"; "b" ] in
  let r = Relation.create schema in
  (* Build the column-0 index before any bulk load. *)
  check_i "empty index" 0 (List.length (Relation.find_by r 0 (v_i 1)));
  Relation.apply r
    (Relation.Delta.of_rows (List.init 40 (fun i -> [| v_i (i mod 4); v_i i |])));
  check_i "bulk rows visible" 40 (Relation.cardinality r);
  check_i "index sees bulk rows" 10 (List.length (Relation.find_by r 0 (v_i 1)));
  (* A second bulk load must extend, not rebuild-and-lose. *)
  Relation.apply r
    (Relation.Delta.of_rows [ [| v_i 1; v_i 99 |]; [| v_i 7; v_i 100 |] ]);
  check_i "index extended" 11 (List.length (Relation.find_by r 0 (v_i 1)));
  check_i "new key indexed" 1 (List.length (Relation.find_by r 0 (v_i 7)));
  check_b "mem via hash set" true (Relation.mem r [| v_i 7; v_i 100 |]);
  check_b "absent row" false (Relation.mem r [| v_i 7; v_i 101 |]);
  (* of_tuples goes through apply and must behave identically. *)
  let r' = Relation.of_tuples schema (Relation.tuples r) in
  check_i "of_tuples cardinality" 42 (Relation.cardinality r');
  check_i "of_tuples index" 11 (List.length (Relation.find_by r' 0 (v_i 1)))

let test_relation_find_by_bound () =
  let r = Relation.create (Schema.make "r" [ "a"; "b"; "c" ]) in
  Relation.apply r
    (Relation.Delta.of_rows
       [ [| v_i 1; v_s "x"; v_i 10 |];
         [| v_i 1; v_s "y"; v_i 11 |];
         [| v_i 2; v_s "x"; v_i 12 |];
         [| v_i 1; v_s "x"; v_i 13 |] ]);
  check_i "no bound cols = all rows" 4
    (List.length (Relation.find_by_bound r []));
  check_i "single bound col" 3
    (List.length (Relation.find_by_bound r [ (0, v_i 1) ]));
  (* Two bound columns intersect exactly. *)
  let hits = Relation.find_by_bound r [ (0, v_i 1); (1, v_s "x") ] in
  check_i "two bound cols" 2 (List.length hits);
  check_b "rows match both columns" true
    (List.for_all
       (fun row -> Value.equal row.(0) (v_i 1) && Value.equal row.(1) (v_s "x"))
       hits);
  (* With three bound columns the result may be a superset filtered by
     the two most selective lists, but must contain every exact match. *)
  let hits3 =
    Relation.find_by_bound r [ (0, v_i 1); (1, v_s "x"); (2, v_i 13) ]
  in
  check_b "superset contains exact match" true
    (List.exists
       (fun row -> Value.equal row.(2) (v_i 13))
       hits3)

(* ------------------------------------------------------------------ *)
(* Database *)

let test_database () =
  let db = Database.create () in
  Database.add_relation db (people ());
  Database.add_relation db (depts ());
  check_i "total tuples" 5 (Database.total_tuples db);
  check_b "mem" true (Database.mem db "people");
  check_b "copy is deep" true
    (let c = Database.copy db in
     insert (Database.find c "people") [| v_s "eve"; v_s "cs"; v_i 1 |];
     Relation.cardinality (Database.find db "people") = 3)

(* ------------------------------------------------------------------ *)
(* Properties *)

let small_rel_gen =
  (* Relation over schema r(a, b) with small-int values. *)
  QCheck.make
    ~print:(fun rows -> QCheck.Print.(list (pair int int)) rows)
    QCheck.Gen.(small_list (pair (int_bound 5) (int_bound 5)))

let rel_of rows name =
  Relation.of_tuples
    (Schema.make name [ "a"; "b" ])
    (List.map (fun (a, b) -> [| v_i a; v_i b |]) rows)

let prop_find_by_equals_filter =
  QCheck.Test.make ~name:"find_by agrees with scan" ~count:200
    QCheck.(pair small_rel_gen (int_bound 5))
    (fun (rows, key) ->
      let r = rel_of rows "r" in
      let via_index = List.length (Relation.find_by r 0 (v_i key)) in
      let via_scan =
        List.length (List.filter (fun (a, _) -> a = key) rows)
      in
      via_index = via_scan)

(* Values where equality is subtle: [Int 1], [Float 1.] and [Str "1"]
   are three values, [nan] equals [nan], [0.] equals [-0.]. Drawn with
   replacement from a small pool so equal pairs are common. *)
let gen_value =
  QCheck.Gen.(
    frequency
      [ ( 4,
          oneofl
            Value.
              [ Null; Bool true; Bool false; Int 0; Int 1; Float 1.;
                Str "1"; Float nan; Float (-.nan); Float 0.; Float (-0.);
                Float infinity; Str ""; Str "a" ] );
        (1, map (fun i -> Value.Int i) small_signed_int);
        (1, map (fun f -> Value.Float f) float);
        (1, map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 3)))
      ])

let print_value = function
  | Value.Null -> "Null"
  | Value.Bool b -> Printf.sprintf "Bool %b" b
  | Value.Int i -> Printf.sprintf "Int %d" i
  | Value.Float f -> Printf.sprintf "Float %h" f
  | Value.Str s -> Printf.sprintf "Str %S" s

let prop_value_equal_agrees =
  QCheck.Test.make ~name:"Value.equal = (compare = 0) and implies equal hashes"
    ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair print_value print_value)
       QCheck.Gen.(pair gen_value gen_value))
    (fun (a, b) ->
      Value.equal a b = (Value.compare a b = 0)
      && ((not (Value.equal a b)) || Value.hash a = Value.hash b))

(* Fields weighted toward the ones the classifier's letter test must
   leave to the conversions: float words (with underscores and in any
   case), booleans and their prefixes, words that start like them,
   signs, underscores, hex and leading blanks, and strings that start
   with [i I n N t f] and go on over those letters, [_ ( ) .] and
   digits. *)
let gen_field =
  let edge =
    [ "_1"; "+5"; ".5"; "nan"; "NaN"; "Nan"; "nan(1)"; "Inf"; "inf"; "iNf";
      "infinity"; "INFINITY"; "-inf"; "+nan"; "0x1p3"; "0X1P3"; "true";
      "tru"; "false"; "f"; "t"; "i"; "I"; "n"; "N"; "True"; "1_000"; "1__";
      "-_1"; "_inf"; "\0115"; " 5"; "\t5"; "5 "; "0u5"; "0b101"; "0o17";
      "1e5"; "e5"; "E5"; "x1"; "cse533"; "Zed"; ""; "_"; "intermediate";
      "topics"; "nadia"; "in_f"; "nAn(abc)"; "i_n_f_inity"; "n_a_n"; "nan()";
      "info"; "nano"; "falsey" ]
  in
  let letter_led =
    QCheck.Gen.(
      map2
        (fun c s -> String.make 1 c ^ s)
        (oneofl [ 'i'; 'I'; 'n'; 'N'; 't'; 'f' ])
        (string_size
           ~gen:(oneofl (List.of_seq (String.to_seq "iInNtf_().0123456789")))
           (int_bound 7)))
  in
  QCheck.Gen.(
    frequency
      [ (4, oneofl edge);
        (2, map2 ( ^ ) (oneofl edge) (oneofl edge));
        (2,
         string_size
           ~gen:(oneofl (List.of_seq (String.to_seq "aeinfNItx019_.+- \011")))
           (int_bound 6));
        (3, letter_led);
        (1, string_size ~gen:printable (int_bound 8)) ])

let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let prop_of_string_agrees =
  QCheck.Test.make ~name:"Value.of_string = conversions tried in turn"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_field)
    (fun s ->
      let got = Value.of_string s and want = Reference.value_of_string s in
      same_value got want
      || QCheck.Test.fail_reportf "got %s, want %s" (print_value got)
           (print_value want))

(* A pool of nine rows, so deltas repeat rows and name absent ones. *)
let row_pool =
  List.concat_map
    (fun a -> List.map (fun b -> [| a; b |]) Value.[ Int 0; Str "a"; Null ])
    Value.[ Int 1; Str "1"; Float nan ]

let gen_row = QCheck.Gen.oneofl row_pool

let print_row row =
  "(" ^ String.concat ", " (Array.to_list (Array.map print_value row)) ^ ")"

let prop_apply_agrees_with_model =
  let gen_delta =
    QCheck.Gen.(
      map2
        (fun adds dels -> Relation.Delta.make ~adds ~dels ())
        (list_size (int_bound 4) gen_row)
        (list_size (int_bound 6) gen_row))
  in
  let print_delta d =
    Printf.sprintf "{adds = [%s]; dels = [%s]}"
      (String.concat "; " (List.map print_row (Relation.Delta.adds d)))
      (String.concat "; " (List.map print_row (Relation.Delta.dels d)))
  in
  QCheck.Test.make ~name:"Relation.apply = list model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (list print_row) (list print_delta))
       QCheck.Gen.(pair (list_size (int_bound 10) gen_row)
                     (list_size (int_range 1 5) gen_delta)))
    (fun (rows, deltas) ->
      let r = Relation.of_tuples (Schema.make "r" [ "a"; "b" ]) rows in
      let step model d =
        let version = Relation.version r in
        Relation.apply r d;
        (* Effective: it adds, or removes a row the relation holds. *)
        let effective =
          Relation.Delta.adds d <> []
          || List.exists
               (fun row -> List.exists (Relation.tuple_equal row) model)
               (Relation.Delta.dels d)
        in
        let model = Reference.apply_model model d in
        let agrees =
          Relation.version r = (if effective then version + 1 else version)
          && List.equal Relation.tuple_equal (Relation.tuples r) model
          && Relation.cardinality r = List.length model
          && List.for_all
               (fun row ->
                 Relation.mem r row = List.exists (Relation.tuple_equal row) model)
               row_pool
        in
        if not agrees then
          QCheck.Test.fail_reportf
            "after %s: version %d (was %d), rows [%s], model [%s]"
            (print_delta d) (Relation.version r) version
            (String.concat "; " (List.map print_row (Relation.tuples r)))
            (String.concat "; " (List.map print_row model));
        model
      in
      ignore (List.fold_left step rows deltas);
      true)

(* ------------------------------------------------------------------ *)
(* Versions and deltas *)

(* An effective apply bumps the version once, whatever it holds; one
   that changes nothing does not, and a clear does. *)
let test_apply_version () =
  let r = Relation.create (Schema.make "r" [ "a" ]) in
  let step what effective d =
    let v = Relation.version r in
    Relation.apply r d;
    check_i what (if effective then v + 1 else v) (Relation.version r)
  in
  step "two adds bump once" true
    (Relation.Delta.of_rows [ [| v_i 1 |]; [| v_i 2 |] ]);
  step "a removal bumps once" true (Relation.Delta.remove [| v_i 1 |]);
  step "a mixed delta bumps once" true
    (Relation.Delta.make ~dels:[ [| v_i 2 |]; [| v_i 9 |] ]
       ~adds:[ [| v_i 3 |] ] ());
  step "removing and re-adding a row bumps once" true
    (Relation.Delta.make ~dels:[ [| v_i 3 |] ] ~adds:[ [| v_i 3 |] ] ());
  step "an absent removal is a no-op" false (Relation.Delta.remove [| v_i 99 |]);
  step "an empty delta is a no-op" false Relation.Delta.empty;
  let v = Relation.version r in
  Relation.clear r;
  check_i "clear bumps once" (v + 1) (Relation.version r)

(* [add_distinct] is [apply (Delta.add row)] guarded by membership: a
   present row changes nothing, not even the version; an absent one is
   appended, bumps the version once and reaches a live derived slot as
   the same one-row delta [apply] would queue. *)
let test_add_distinct () =
  let kind = Relation.Derived.kind () in
  let queued = ref [] in
  let read r =
    ignore
      (Relation.Derived.get kind
         ~build:(fun _ -> ())
         ~patch:(fun _ () ds -> queued := ds)
         r)
  in
  let fresh () =
    let r = Relation.create (Schema.make "r" [ "a"; "b" ]) in
    insert r [| v_i 1; v_s "x" |];
    read r;
    queued := [];
    r
  in
  let r = fresh () in
  let v = Relation.version r in
  check_b "a present row is refused" false
    (Relation.add_distinct r [| v_i 1; v_s "x" |]);
  check_i "and leaves the version" v (Relation.version r);
  read r;
  check_b "and queues nothing" true (!queued = []);
  check_b "an absent row is added" true
    (Relation.add_distinct r [| v_i 1; v_s "y" |]);
  check_i "and bumps the version once" (v + 1) (Relation.version r);
  check_b "it is a member" true (Relation.mem r [| v_i 1; v_s "y" |]);
  read r;
  let via_add_distinct = !queued in
  let twin = fresh () in
  Relation.apply twin (Relation.Delta.add [| v_i 1; v_s "y" |]);
  read twin;
  check_b "the slot sees what apply queues" true
    (List.map Relation.Delta.adds via_add_distinct
     = List.map Relation.Delta.adds !queued
    && List.map Relation.Delta.dels via_add_distinct
       = List.map Relation.Delta.dels !queued);
  check_b "the rows are apply's" true
    (Relation.tuples r = Relation.tuples twin);
  Alcotest.check_raises "arity is checked"
    (Invalid_argument
       "Relation.add_distinct: arity mismatch for r (got 1, want 2)")
    (fun () -> ignore (Relation.add_distinct r [| v_i 1 |] : bool))

let test_delta_compose () =
  let open Relation.Delta in
  check_b "add-then-del cancels" true
    (is_empty (compose (of_rows [ [| v_i 1 |] ]) (remove [| v_i 1 |])));
  check_i "del-then-add keeps both" 2
    (size (compose (remove [| v_i 1 |]) (of_rows [ [| v_i 1 |] ])))

(* ------------------------------------------------------------------ *)
(* Stats: cached cardinality + distinct counts, patched by deltas *)

let test_stats_distinct_and_cache () =
  Stats.reset_cache ();
  let r = people () in
  let s = Stats.of_relation r in
  check_i "cardinality" 3 s.Stats.cardinality;
  check_i "distinct names" 3 s.Stats.distinct.(0);
  check_i "distinct depts" 2 s.Stats.distinct.(1);
  check_i "one miss" 1 (Stats.cache_misses ());
  (* Unchanged relation: served from the cache. *)
  let s' = Stats.of_relation r in
  check_b "same stats" true (s = s');
  check_i "one hit" 1 (Stats.cache_hits ());
  (* A mutation queues its delta on the slot; the next read patches the
     entry from it instead of rescanning. *)
  insert r [| v_s "dan"; v_s "cs"; v_i 29 |];
  let s2 = Stats.of_relation r in
  check_i "patched cardinality" 4 s2.Stats.cardinality;
  check_i "dept count unchanged" 2 s2.Stats.distinct.(1);
  check_i "still one miss" 1 (Stats.cache_misses ());
  check_i "one patch" 1 (Stats.cache_patches ());
  (* A copy has no derived slots, so it misses and rescans. *)
  insert r [| v_s "eve"; v_s "ee"; v_i 30 |];
  let s3 = Stats.of_relation (Relation.copy r) in
  check_i "rescanned cardinality" 5 s3.Stats.cardinality;
  check_i "second miss" 2 (Stats.cache_misses ());
  (* Selectivity: 1/distinct, clamped for degenerate columns. *)
  check_b "dept selectivity" true (Stats.selectivity s2 1 = 0.5);
  check_b "out of range is neutral" true (Stats.selectivity s2 9 = 1.0)

let stats_ops_gen =
  QCheck.make
    ~print:(fun ops -> QCheck.Print.(list (triple bool int int)) ops)
    QCheck.Gen.(list_size (int_bound 30) (triple bool (int_bound 5) (int_bound 5)))

let prop_stats_patch_equals_rescan =
  QCheck.Test.make ~name:"stats: delta patching == rescan" ~count:200
    QCheck.(pair small_rel_gen stats_ops_gen)
    (fun (rows, ops) ->
      Stats.reset_cache ();
      let r = rel_of rows "r" in
      ignore (Stats.of_relation r) (* prime the cached entry *);
      List.iter
        (fun (is_del, a, b) ->
          let row = [| v_i a; v_i b |] in
          if is_del then Relation.apply r (Relation.Delta.remove row)
          else Relation.apply r (Relation.Delta.add row))
        ops;
      let patched = Stats.of_relation r in
      (* [copy] has no derived slots, forcing a cold full rescan. *)
      let fresh = Stats.of_relation (Relation.copy r) in
      patched.Stats.cardinality = fresh.Stats.cardinality
      && patched.Stats.distinct = fresh.Stats.distinct)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "relalg"
    [ ("value", [ Alcotest.test_case "parse" `Quick test_value_parse ]);
      ("schema",
       [ Alcotest.test_case "basics" `Quick test_schema_basics;
         Alcotest.test_case "duplicate attr" `Quick test_schema_duplicate_attr ]);
      ("relation",
       [ Alcotest.test_case "insert and find" `Quick test_relation_insert_and_find;
         Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
         Alcotest.test_case "apply multiset" `Quick test_relation_apply_multiset;
         Alcotest.test_case "apply bumps the version once" `Quick
           test_apply_version;
         Alcotest.test_case "delta compose" `Quick test_delta_compose;
         Alcotest.test_case "add_distinct is a guarded apply" `Quick
           test_add_distinct;
         Alcotest.test_case "bulk insert index" `Quick test_relation_bulk_insert_index;
         Alcotest.test_case "find_by_bound" `Quick test_relation_find_by_bound ]);
      ("database", [ Alcotest.test_case "basics" `Quick test_database ]);
      ("stats",
       [ Alcotest.test_case "distinct and cache" `Quick
           test_stats_distinct_and_cache ]);
      ("properties",
       qc
         [ prop_value_equal_agrees; prop_of_string_agrees;
           prop_apply_agrees_with_model; prop_find_by_equals_filter;
           prop_stats_patch_equals_rescan ]) ]
