(* Tests for conjunctive queries: evaluation, containment, minimization,
   unfolding and datalog. *)

open Cq

let v = Term.v
let s = Term.str
let atom = Atom.make
let q head body = Query.make head body
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

let insert rel row = Relalg.Relation.apply rel (Relalg.Relation.Delta.add row)

let insert_distinct rel row =
  if Relalg.Relation.mem rel row then false
  else begin
    insert rel row;
    true
  end

(* A small university edb:
   course(id, title, dept)    teaches(prof, id)    office(prof, room) *)
let edb () =
  let db = Relalg.Database.create () in
  let course = Relalg.Database.create_relation db "course" [ "id"; "title"; "dept" ] in
  let teaches = Relalg.Database.create_relation db "teaches" [ "prof"; "id" ] in
  let office = Relalg.Database.create_relation db "office" [ "prof"; "room" ] in
  let vs x = Relalg.Value.Str x in
  List.iter (insert course)
    [ [| vs "cse444"; vs "databases"; vs "cs" |];
      [| vs "cse446"; vs "ml"; vs "cs" |];
      [| vs "hist101"; vs "ancient history"; vs "history" |] ];
  List.iter (insert teaches)
    [ [| vs "alon"; vs "cse444" |];
      [| vs "oren"; vs "cse446" |];
      [| vs "mary"; vs "hist101" |] ];
  List.iter (insert office)
    [ [| vs "alon"; vs "ac101" |]; [| vs "oren"; vs "ac202" |] ];
  db

(* ------------------------------------------------------------------ *)
(* Eval *)

let test_eval_join () =
  let db = edb () in
  (* Who teaches a cs course, and where is their office? *)
  let query =
    q (atom "ans" [ v "P"; v "R" ])
      [ atom "course" [ v "C"; v "T"; s "cs" ];
        atom "teaches" [ v "P"; v "C" ];
        atom "office" [ v "P"; v "R" ] ]
  in
  let result = Eval.run db query in
  check_i "two cs profs with offices" 2 (Relalg.Relation.cardinality result)

let test_eval_constant_filter () =
  let db = edb () in
  let query =
    q (atom "ans" [ v "T" ]) [ atom "course" [ s "cse444"; v "T"; v "D" ] ]
  in
  let result = Eval.run db query in
  check_i "one title" 1 (Relalg.Relation.cardinality result)

let test_eval_repeated_var () =
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  insert r [| Relalg.Value.Int 1; Relalg.Value.Int 1 |];
  insert r [| Relalg.Value.Int 1; Relalg.Value.Int 2 |];
  let query = q (atom "ans" [ v "X" ]) [ atom "r" [ v "X"; v "X" ] ] in
  check_i "diagonal only" 1 (Relalg.Relation.cardinality (Eval.run db query))

let test_eval_missing_relation () =
  let db = edb () in
  let query = q (atom "ans" [ v "X" ]) [ atom "nosuch" [ v "X" ] ] in
  check_i "missing relation is empty" 0 (Relalg.Relation.cardinality (Eval.run db query))

let test_eval_unsafe_raises () =
  let db = edb () in
  let query = q (atom "ans" [ v "Z" ]) [ atom "office" [ v "P"; v "R" ] ] in
  check_b "raises" true
    (try
       ignore (Eval.run db query);
       false
     with Invalid_argument _ -> true)

let test_eval_cartesian () =
  let db = edb () in
  let query =
    q (atom "ans" [ v "P"; v "C" ])
      [ atom "office" [ v "P"; v "R" ]; atom "course" [ v "C"; v "T"; v "D" ] ]
  in
  check_i "2 x 3 pairs" 6 (Relalg.Relation.cardinality (Eval.run db query))

(* ------------------------------------------------------------------ *)
(* Containment *)

let test_containment_classic () =
  (* q1(x) :- r(x,y), r(y,z)  is contained in  q2(x) :- r(x,y). *)
  let q1 =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "Y"; v "Z" ] ]
  in
  let q2 = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  check_b "q1 in q2" true (Containment.contained_in q1 q2);
  check_b "q2 not in q1" false (Containment.contained_in q2 q1)

let test_containment_constants () =
  let q1 = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "cs" ] ] in
  let q2 = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  check_b "specific in general" true (Containment.contained_in q1 q2);
  check_b "general not in specific" false (Containment.contained_in q2 q1)

let test_containment_head_mismatch () =
  let q1 = q (atom "q" [ v "X"; v "Y" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let q2 = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  check_b "arity mismatch" false (Containment.contained_in q1 q2)

let test_containment_equivalence () =
  (* Same query up to variable renaming and atom order. *)
  let q1 =
    q (atom "q" [ v "A" ]) [ atom "r" [ v "A"; v "B" ]; atom "t" [ v "B" ] ]
  in
  let q2 =
    q (atom "q" [ v "X" ]) [ atom "t" [ v "Y" ]; atom "r" [ v "X"; v "Y" ] ]
  in
  check_b "equivalent" true (Containment.equivalent q1 q2)

let test_containment_union () =
  let q1 = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "a" ] ] in
  let qa = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "b" ] ] in
  let qb = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  check_b "in union via second" true (Containment.contained_in_union q1 [ qa; qb ]);
  check_b "not in union" false (Containment.contained_in_union qb [ q1; qa ])

(* ------------------------------------------------------------------ *)
(* Minimize *)

let test_minimize_redundant_atom () =
  (* q(x) :- r(x,y), r(x,z) minimizes to a single atom. *)
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "X"; v "Z" ] ]
  in
  let m = Minimize.minimize query in
  check_i "one atom" 1 (Query.size m);
  check_b "still equivalent" true (Containment.equivalent m query)

let test_minimize_keeps_necessary () =
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "t" [ v "Y" ] ]
  in
  check_i "nothing removable" 2 (Query.size (Minimize.minimize query))

let test_minimize_duplicates () =
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "r" [ v "X"; v "Y" ] ]
  in
  check_i "exact duplicate dropped" 1 (Query.size (Minimize.remove_duplicate_atoms query))

(* ------------------------------------------------------------------ *)
(* Datalog *)

let test_datalog_transitive_closure () =
  let db = Relalg.Database.create () in
  let edge = Relalg.Database.create_relation db "edge" [ "src"; "dst" ] in
  let vi i = Relalg.Value.Int i in
  List.iter (insert edge)
    [ [| vi 1; vi 2 |]; [| vi 2; vi 3 |]; [| vi 3; vi 4 |] ];
  let program =
    [ q (atom "path" [ v "X"; v "Y" ]) [ atom "edge" [ v "X"; v "Y" ] ];
      q (atom "path" [ v "X"; v "Z" ])
        [ atom "edge" [ v "X"; v "Y" ]; atom "path" [ v "Y"; v "Z" ] ] ]
  in
  let result = Oracle.Datalog.eval db program in
  check_i "paths" 6 (Relalg.Relation.cardinality (Relalg.Database.find result "path"));
  check_i "edb preserved" 3
    (Relalg.Relation.cardinality (Relalg.Database.find result "edge"));
  (* Input database untouched. *)
  check_b "input unmodified" false (Relalg.Database.mem db "path")

let test_datalog_unsafe_rule_rejected () =
  let db = Relalg.Database.create () in
  let bad = q (atom "p" [ v "X" ]) [ atom "r" [ v "Y" ] ] in
  check_b "raises" true
    (try
       ignore (Oracle.Datalog.eval db [ bad ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Query helpers *)

let test_query_helpers () =
  let query =
    q (atom "ans" [ v "X" ])
      [ atom "r" [ v "X"; v "Y" ]; atom "t" [ v "Y" ]; atom "r" [ v "X"; s "k" ] ]
  in
  check_b "vars order" true (Query.vars query = [ "X"; "Y" ]);
  check_b "existential" true (Query.existential_vars query = [ "Y" ]);
  check_b "body preds dedupe" true (Query.body_preds query = [ "r"; "t" ]);
  let fresh = Query.freshen ~suffix:"_1" query in
  check_b "freshen renames" true (Query.vars fresh = [ "X_1"; "Y_1" ]);
  check_b "freshen keeps consts" true
    (List.exists
       (fun (a : Atom.t) -> List.exists (Term.equal (s "k")) a.Atom.args)
       fresh.Query.body);
  let renamed = Query.rename_preds (fun p -> "x_" ^ p) query in
  check_b "preds renamed" true (Query.body_preds renamed = [ "x_r"; "x_t" ]);
  check_b "to_string" true
    (String.length (Query.to_string query) > 10)

let test_unsafe_query_detected () =
  let unsafe = q (atom "ans" [ v "Z" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  check_b "unsafe" false (Query.is_safe unsafe)

(* ------------------------------------------------------------------ *)
(* Relax: graceful degradation *)

let test_relax_exact_hit_needs_no_steps () =
  let db = edb () in
  let query = q (atom "ans" [ v "T" ]) [ atom "course" [ v "C"; v "T"; s "cs" ] ] in
  match Relax.graceful db query with
  | Some r ->
      check_i "no steps" 0 (List.length r.Relax.steps);
      check_i "two cs courses" 2 (Relalg.Relation.cardinality r.Relax.answers)
  | None -> Alcotest.fail "expected answers"

let test_relax_generalises_wrong_constant () =
  let db = edb () in
  (* The user guesses a department name that does not exist. *)
  let query =
    q (atom "ans" [ v "T" ]) [ atom "course" [ v "C"; v "T"; s "informatics" ] ]
  in
  match Relax.graceful db query with
  | Some r ->
      check_i "one step" 1 (List.length r.Relax.steps);
      (match r.Relax.steps with
      | [ Relax.Generalised_constant ("course", value) ] ->
          check_b "the bad constant" true
            (Relalg.Value.equal value (Relalg.Value.Str "informatics"))
      | _ -> Alcotest.fail "expected a constant generalisation");
      check_i "all titles" 3 (Relalg.Relation.cardinality r.Relax.answers)
  | None -> Alcotest.fail "expected relaxed answers"

let test_relax_drops_impossible_atom () =
  let db = edb () in
  (* No awards exist at all; with no constants to generalise, the only
     productive relaxation drops the award atom. *)
  ignore (Relalg.Database.create_relation db "award" [ "prof" ]);
  let query =
    q (atom "ans" [ v "P" ])
      [ atom "teaches" [ v "P"; v "C" ]; atom "award" [ v "P" ] ]
  in
  match Relax.graceful db query with
  | Some r ->
      check_b "dropped the award atom" true
        (List.exists
           (function Relax.Dropped_atom a -> a.Atom.pred = "award" | _ -> false)
           r.Relax.steps);
      check_i "all teachers found" 3 (Relalg.Relation.cardinality r.Relax.answers)
  | None -> Alcotest.fail "expected relaxed answers"

let test_relax_gives_up () =
  let db = edb () in
  let query = q (atom "ans" [ v "X" ]) [ atom "nosuch" [ v "X" ] ] in
  check_b "nothing to relax to" true (Relax.graceful db query = None)

let test_relax_single_steps_enumerated () =
  let query =
    q (atom "ans" [ v "T" ])
      [ atom "course" [ v "C"; v "T"; s "cs" ]; atom "teaches" [ v "P"; v "C" ] ]
  in
  (* One constant to generalise + one droppable atom (dropping the course
     atom would unbind the head variable T, so only 'teaches' drops). *)
  check_i "relaxation count" 2 (List.length (Relax.relaxations query))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parser_basic () =
  let query = Parser.parse_query_exn "q(X, Y) :- r(X, Z), s(Z, Y)" in
  check_i "two atoms" 2 (Query.size query);
  check_b "head vars" true (Query.head_vars query = [ "X"; "Y" ]);
  check_b "safe" true (Query.is_safe query)

let test_parser_constants () =
  let query =
    Parser.parse_query_exn
      "q(X) :- course(X, 'intro to db', cs, 42, 1e+20, 'it''s')"
  in
  match query.Query.body with
  | [ a ] ->
      check_b "quoted string" true
        (List.nth a.Atom.args 1 = Term.str "intro to db");
      check_b "bare lowercase is string" true
        (List.nth a.Atom.args 2 = Term.str "cs");
      check_b "number" true (List.nth a.Atom.args 3 = Term.int 42);
      check_b "signed exponent" true
        (List.nth a.Atom.args 4 = Term.Const (Relalg.Value.Float 1e20));
      check_b "doubled quote" true (List.nth a.Atom.args 5 = Term.str "it's")
  | _ -> Alcotest.fail "expected one atom"

let test_parser_qualified_preds () =
  let query = Parser.parse_query_exn "ans(T) :- mit.subject!(T, E)" in
  match query.Query.body with
  | [ a ] -> check_b "qualified pred" true (String.equal a.Atom.pred "mit.subject!")
  | _ -> Alcotest.fail "expected one atom"

let test_parser_errors () =
  check_b "missing body" true (Result.is_error (Parser.parse_query "q(X)"));
  check_b "unterminated quote" true
    (Result.is_error (Parser.parse_query "q(X) :- r('oops)"));
  check_b "trailing garbage" true
    (Result.is_error (Parser.parse_query "q(X) :- r(X) extra"));
  check_b "empty" true (Result.is_error (Parser.parse_query ""))

let test_parser_program () =
  let text = "# a comment\npath(X, Y) :- edge(X, Y)\n\npath(X, Z) :- edge(X, Y), path(Y, Z)" in
  match Parser.parse_program text with
  | Ok rules -> check_i "two rules" 2 (List.length rules)
  | Error msg -> Alcotest.fail msg

let test_parser_roundtrip () =
  List.iter
    (fun text ->
      let query = Parser.parse_query_exn text in
      let reparsed = Parser.parse_query_exn (Query.to_string query) in
      check_b text true (Query.equal query reparsed))
    [ "q(X) :- r(X, Y)";
      "ans(A, B) :- course(A, 'db', B), teaches(B, A)";
      "p(X) :- a.b(X), c.d(X, X)" ]

(* Hostile input: mutated queries and programs parse or fail with
   [Error], never raise. *)
let parser_alphabet = "():-,.!'#\n XYZabcr_0123456789e+-"

let prop_parse_query_never_raises =
  Fuzz.never_raises ~name:"parse_query never raises on mutations"
    ~alphabet:parser_alphabet
    [ "q(X, Y) :- r(X, Z), s(Z, Y)";
      "q(X) :- course(X, 'intro to db', cs, 42, 1e+20, 'it''s')";
      "ans(T) :- mit.subject!(T, E)";
      "p(X, -3, 6.830) :- a.b(X), c.d(X, X, true)" ]
    Parser.parse_query

let prop_parse_program_never_raises =
  Fuzz.never_raises ~name:"parse_program never raises on mutations"
    ~alphabet:parser_alphabet
    [ "# a comment\npath(X, Y) :- edge(X, Y)\n\npath(X, Z) :- edge(X, Y), \
       path(Y, Z)";
      "q(X) :- r(X, 'a''b')\n# end\n" ]
    Parser.parse_program

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random CQ over predicates r/2, t/1 with vars from a small pool. *)
let gen_term =
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> Term.v (Printf.sprintf "V%d" i)) (int_bound 3));
        (1, map (fun i -> Term.int i) (int_bound 2)) ])

let gen_atom =
  QCheck.Gen.(
    frequency
      [ (2, map2 (fun a b -> atom "r" [ a; b ]) gen_term gen_term);
        (1, map (fun a -> atom "t" [ a ]) gen_term) ])

let gen_query =
  QCheck.Gen.(
    list_size (int_range 1 3) gen_atom >>= fun body ->
    (* Head: first variable occurring in the body, or boolean head. *)
    let vars = List.concat_map Atom.vars body in
    let head_args = match vars with [] -> [] | x :: _ -> [ Term.v x ] in
    return (q (atom "ans" head_args) body))

let arb_query = QCheck.make ~print:Query.to_string gen_query

let gen_db =
  QCheck.Gen.(
    pair
      (small_list (pair (int_bound 3) (int_bound 3)))
      (small_list (int_bound 3))
    >>= fun (rs, ts) ->
    return
      (let db = Relalg.Database.create () in
       let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
       let t = Relalg.Database.create_relation db "t" [ "a" ] in
       List.iter
         (fun (a, b) ->
           ignore
             (insert_distinct r [| Relalg.Value.Int a; Relalg.Value.Int b |]))
         rs;
       List.iter
         (fun a ->
           ignore (insert_distinct t [| Relalg.Value.Int a |]))
         ts;
       db))

let arb_db = QCheck.make ~print:(fun _ -> "<db>") gen_db

let answers db query =
  Relalg.Relation.tuples (Eval.run db query)
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let prop_containment_sound =
  QCheck.Test.make ~name:"containment implies answer inclusion" ~count:500
    QCheck.(triple arb_db arb_query arb_query)
    (fun (db, q1, q2) ->
      QCheck.assume
        (Atom.arity q1.Query.head = Atom.arity q2.Query.head
        && Query.is_safe q1 && Query.is_safe q2);
      if Containment.contained_in q1 q2 then
        let a1 = answers db q1 and a2 = answers db q2 in
        List.for_all (fun x -> List.mem x a2) a1
      else true)

let prop_minimize_preserves_answers =
  QCheck.Test.make ~name:"minimize preserves answers" ~count:300
    QCheck.(pair arb_db arb_query)
    (fun (db, query) ->
      QCheck.assume (Query.is_safe query);
      answers db query = answers db (Minimize.minimize query))

let prop_self_containment =
  QCheck.Test.make ~name:"every query contains itself" ~count:200 arb_query
    (fun query -> Containment.contained_in query query)

(* Reference containment with no prefilter — the seed's implementation:
   freeze q1's head, seed the substitution head-onto-head, search for a
   homomorphism of q2's body into q1's frozen body. *)
let reference_contained_in (q1 : Query.t) (q2 : Query.t) =
  let frozen_head = Homomorphism.freeze_atom q1.Query.head in
  match Subst.match_atom Subst.empty q2.Query.head frozen_head with
  | None -> false
  | Some init -> Homomorphism.exists ~init ~from:q2.Query.body q1.Query.body

let prop_signature_prefilter_exact =
  QCheck.Test.make
    ~name:"signature prefilter never changes containment verdicts" ~count:1000
    QCheck.(pair arb_query arb_query)
    (fun (q1, q2) ->
      let reference = reference_contained_in q1 q2 in
      let sub = Signature.of_query q1 and super = Signature.of_query q2 in
      Containment.contained_in q1 q2 = reference
      && Containment.contained_in_with ~sub ~super q1 q2 = reference)

let prop_signature_necessary =
  QCheck.Test.make ~name:"containment implies signature compatibility"
    ~count:1000
    QCheck.(pair arb_query arb_query)
    (fun (q1, q2) ->
      (not (reference_contained_in q1 q2))
      || Signature.compatible ~sub:(Signature.of_query q1)
           ~super:(Signature.of_query q2))

let test_signature_basics () =
  let q1 = q (atom "ans" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let q2 =
    q (atom "ans" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "t" [ v "Y" ] ]
  in
  let q3 = q (atom "ans" [ v "X"; v "Y" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let s1 = Signature.of_query q1
  and s2 = Signature.of_query q2
  and s3 = Signature.of_query q3 in
  (* Reflexive. *)
  check_b "self" true (Signature.compatible ~sub:s1 ~super:s1);
  (* q2's body covers q1's predicate names, so q2 ⊑ q1 is possible... *)
  check_b "sub has extra pred" true (Signature.compatible ~sub:s2 ~super:s1);
  (* ...but q1 ⊑ q2 is impossible: q1 has no [t] atom to map onto. *)
  check_b "super has extra pred" false (Signature.compatible ~sub:s1 ~super:s2);
  (* Head arity mismatch is always incompatible. *)
  check_b "arity mismatch" false (Signature.compatible ~sub:s1 ~super:s3)

(* ------------------------------------------------------------------ *)
(* Plan: shared-prefix batch evaluation *)

let rel_rows rel =
  Relalg.Relation.tuples rel
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let test_plan_trie_shape () =
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  let t = Relalg.Database.create_relation db "t" [ "a" ] in
  List.iter
    (fun (a, b) ->
      insert r [| Relalg.Value.Int a; Relalg.Value.Int b |])
    [ (1, 2); (2, 1) ];
  List.iter
    (fun a -> insert t [| Relalg.Value.Int a |])
    [ 0; 1; 2; 3; 4 ];
  (* r is smaller than t, so both bodies start with their r atom; the
     alpha-normalised first atoms coincide and share one trie node. *)
  let q1 =
    q (atom "ans" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "t" [ v "Y" ] ]
  in
  let q2 =
    q (atom "ans" [ v "A" ]) [ atom "r" [ v "A"; v "B" ]; atom "r" [ v "B"; v "A" ] ]
  in
  let plan = Plan.build db [ q1; q2 ] in
  let s = Plan.stats plan in
  check_i "queries" 2 s.Plan.queries;
  check_i "nodes" 3 s.Plan.nodes;
  check_i "shared prefix atoms" 1 s.Plan.shared_prefix_atoms;
  check_i "no duplicates" 0 s.Plan.duplicate_queries;
  check_i "max depth" 2 s.Plan.max_depth;
  (* The walk emits exactly what per-rewriting evaluation does. *)
  let out_b = Relalg.Relation.create (Eval.head_schema q1) in
  let counts_b = Plan.run_union_into out_b db plan in
  let out_s = Relalg.Relation.create (Eval.head_schema q1) in
  let counts_s =
    List.map (fun qq -> Eval.run_union_into out_s db [ qq ]) [ q1; q2 ]
  in
  check_b "same answers" true (rel_rows out_b = rel_rows out_s);
  check_b "same per-query counts" true (counts_b = counts_s);
  (* Fully identical queries collapse onto one emit point. *)
  let dup = Plan.build db [ q1; q1 ] in
  let sd = Plan.stats dup in
  check_i "dup nodes" 2 sd.Plan.nodes;
  check_i "dup shared" 2 sd.Plan.shared_prefix_atoms;
  check_i "dup duplicates" 1 sd.Plan.duplicate_queries

let test_plan_bindings_reused_counter () =
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  let t = Relalg.Database.create_relation db "t" [ "a" ] in
  List.iter
    (fun (a, b) ->
      insert r [| Relalg.Value.Int a; Relalg.Value.Int b |])
    [ (1, 2); (2, 1) ];
  (* t larger than r, so the shared r atom stays first in both orders. *)
  List.iter
    (fun a -> insert t [| Relalg.Value.Int a |])
    [ 0; 1; 2; 3; 4 ];
  let q1 =
    q (atom "ans" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "t" [ v "Y" ] ]
  in
  let q2 =
    q (atom "ans" [ v "A" ]) [ atom "r" [ v "A"; v "B" ]; atom "r" [ v "B"; v "A" ] ]
  in
  let plan = Plan.build db [ q1; q2 ] in
  let before =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "cq.plan.bindings_reused"
  in
  let out = Relalg.Relation.create (Eval.head_schema q1) in
  ignore (Plan.run_union_into out db plan : int list);
  let after =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "cq.plan.bindings_reused"
  in
  (* The shared r node has 2 extensions serving 2 queries: 2 reused. *)
  check_i "bindings reused" 2 (after - before)

let test_arity_mismatch_counter () =
  let db = Relalg.Database.create () in
  ignore (Relalg.Database.create_relation db "r" [ "a"; "b" ]);
  let bad = q (atom "ans" []) [ atom "r" [ v "X" ] ] in
  let before =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "cq.eval.arity_mismatch"
  in
  check_i "no answers" 0 (Relalg.Relation.cardinality (Eval.run db bad));
  let after =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "cq.eval.arity_mismatch"
  in
  check_b "counter bumped" true (after > before)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) name

(* Two first-group relations r1, r2 and three second-group ones s1..s3,
   as a product of unions: ans(B, C) :- ri(A, B), sj(A, C). Each ri is
   as small as the smallest sj, so it comes first, and each ri node's
   three children probe their sj on A: a fan, both nodes reading one
   union table over (s1, s2, s3). *)
let product_db ~second:(s1, s2, s3) =
  let db = Relalg.Database.create () in
  let rel name rows =
    let r = Relalg.Database.create_relation db name [ "a"; "b" ] in
    List.iter
      (fun (a, b) -> insert r Relalg.Value.[| Int a; Str b |])
      rows
  in
  rel "r1" [ (1, "x"); (2, "y") ];
  rel "r2" [ (2, "u"); (3, "v") ];
  rel "s1" s1;
  rel "s2" s2;
  rel "s3" s3;
  db

let product_union ?(first = fun i -> [ v "A"; v (Printf.sprintf "B%d" i) ]) () =
  List.concat_map
    (fun i ->
      List.map
        (fun j ->
          q
            (atom "ans" [ v (Printf.sprintf "B%d" i); v "C" ])
            [ atom (Printf.sprintf "r%d" i) (first i);
              atom (Printf.sprintf "s%d" j) [ v "A"; v "C" ] ])
        [ 1; 2; 3 ])
    [ 1; 2 ]

let row_strings rel =
  List.map
    (fun row -> String.concat "," (Array.to_list (Array.map Relalg.Value.to_string row)))
    (Relalg.Relation.tuples rel)

(* The first node's two bindings probe s1..s3 on their own (6 probes);
   that reaches the 5 keys a union would hold, so the second node's
   bindings read one built table. Rows, their order and every count are
   what per-child probing gives. *)
let test_plan_fan_product () =
  let db =
    product_db
      ~second:
        ( [ (1, "a"); (2, "b") ],
          [ (2, "c"); (2, "d") ],
          [ (3, "e"); (9, "f") ] )
  in
  let qs = product_union () in
  let plan = Plan.build db qs in
  check_i "nodes" 8 (Plan.stats plan).Plan.nodes;
  let unions0 = counter "cq.plan.fan_unions"
  and shared0 = counter "cq.plan.probes_shared"
  and reused0 = counter "cq.plan.bindings_reused" in
  let out = Relalg.Relation.create (Eval.head_schema (List.hd qs)) in
  let counts = Plan.run_union_into out db plan in
  Alcotest.(check (list string))
    "rows in walk order"
    [ "x,a"; "y,b"; "y,d"; "y,c"; "u,b"; "u,d"; "u,c"; "v,e" ]
    (row_strings out);
  Alcotest.(check (list int)) "per-rewriting counts" [ 2; 2; 0; 1; 2; 1 ] counts;
  check_i "one union built" 1 (counter "cq.plan.fan_unions" - unions0);
  check_i "two bindings answered for three members each" 4
    (counter "cq.plan.probes_shared" - shared0);
  check_i "bindings reused" 8 (counter "cq.plan.bindings_reused" - reused0);
  Alcotest.(check (list (list string)))
    "run_each"
    [ [ "x,a"; "y,b" ]; [ "y,d"; "y,c" ]; []; [ "u,b" ]; [ "u,d"; "u,c" ];
      [ "v,e" ] ]
    (List.map row_strings (Plan.run_each db plan));
  check_i "run_each builds its own union" 2
    (counter "cq.plan.fan_unions" - unions0)

(* A selective parent binds too few values to pay for a table: the
   members probe on their own, and the answers are the same. *)
let test_plan_fan_guard () =
  let many tag = List.init 40 (fun k -> (k, Printf.sprintf "%s%d" tag k)) in
  let db = product_db ~second:(many "a", many "c", many "e") in
  let title i = Relalg.Value.Str (if i = 1 then "x" else "u") in
  let qs =
    product_union ~first:(fun i -> [ v "A"; Term.c (title i) ]) ()
    |> List.map (fun (qq : Query.t) ->
           q (atom "ans" [ v "C" ]) qq.Query.body)
  in
  let unions0 = counter "cq.plan.fan_unions" in
  let out = Relalg.Relation.create (Eval.head_schema (List.hd qs)) in
  let counts = Plan.run_union_into out db (Plan.build db qs) in
  check_i "no union built" 0 (counter "cq.plan.fan_unions" - unions0);
  let alone = Relalg.Relation.create (Eval.head_schema (List.hd qs)) in
  let counts' = List.map (fun qq -> Eval.run_union_into alone db [ qq ]) qs in
  Alcotest.(check (list int)) "per-rewriting counts" counts' counts;
  Alcotest.(check (list string))
    "answers" [ "a1"; "c1"; "e1"; "a2"; "c2"; "e2" ] (row_strings out)

(* Batch ≡ baseline on random unions: same union tuples, same
   per-query pre-dedup counts, same per-query answer relations. *)
let prop_plan_matches_per_rewriting =
  QCheck.Test.make ~name:"trie batch = per-rewriting union (any jobs)"
    ~count:300
    QCheck.(pair arb_db (list_of_size Gen.(int_range 2 6) arb_query))
    (fun (db, qs) ->
      QCheck.assume (List.for_all Query.is_safe qs);
      let q0 = List.hd qs in
      let a0 = Atom.arity q0.Query.head in
      QCheck.assume
        (List.for_all (fun qq -> Atom.arity qq.Query.head = a0) qs);
      let base = Relalg.Relation.create (Eval.head_schema q0) in
      let base_counts =
        List.map (fun qq -> Eval.run_union_into base db [ qq ]) qs
      in
      let base_each = List.map (fun qq -> rel_rows (Eval.run db qq)) qs in
      let plan = Plan.build db qs in
      let out = Relalg.Relation.create (Eval.head_schema q0) in
      let counts = Plan.run_union_into out db plan in
      rel_rows out = rel_rows base
      && counts = base_counts
      && List.map rel_rows (Plan.run_each db plan) = base_each)

(* ------------------------------------------------------------------ *)
(* The join engine against an independent oracle, the nested-loop
   evaluator of test/reference. *)

let compare_tuples a b =
  List.compare Relalg.Value.compare (Array.to_list a) (Array.to_list b)

let tuple_set rows = List.sort_uniq compare_tuples rows

(* [rel] holds exactly [expected], each tuple once. *)
let holds expected rel =
  let rows = Relalg.Relation.tuples rel in
  List.length rows = List.length expected
  && List.equal (fun a b -> compare_tuples a b = 0) (tuple_set rows) expected

(* Values one column mixes: [Int 1], [Float 1.] and [Str "1"] are three
   values, [nan] equals [nan] and [0.] equals [-0.]. *)
let tricky = Relalg.Value.[ Int 1; Float 1.; Str "1"; Float nan; Float (-0.) ]
let gen_value = QCheck.Gen.oneofl (Relalg.Value.[ Int 0; Float 0.; Null ] @ tricky)

(* r/2 always holds every tricky value in its first column; t/1 and
   u/3 are random. "nosuch" is missing. *)
let gen_oracle_db =
  QCheck.Gen.(
    quad
      (list_repeat (List.length tricky) gen_value)
      (list_size (int_bound 6) (pair gen_value gen_value))
      (list_size (int_bound 4) gen_value)
      (list_size (int_bound 6) (triple gen_value gen_value gen_value))
    >|= fun (seconds, rs, ts, us) ->
    let db = Relalg.Database.create () in
    let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
    let t = Relalg.Database.create_relation db "t" [ "a" ] in
    let u = Relalg.Database.create_relation db "u" [ "a"; "b"; "c" ] in
    List.iter2 (fun a b -> insert r [| a; b |]) tricky seconds;
    List.iter (fun (a, b) -> insert r [| a; b |]) rs;
    List.iter (fun a -> insert t [| a |]) ts;
    List.iter (fun (a, b, c) -> insert u [| a; b; c |]) us;
    db)

(* Three variables, so repeats inside an atom and across atoms are
   common; constants from the same values as the data. *)
let gen_oracle_term =
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> Term.v (Printf.sprintf "V%d" i)) (int_bound 2));
        (1, map Term.c gen_value) ])

let gen_oracle_atom =
  QCheck.Gen.(
    let t = gen_oracle_term in
    frequency
      [ (4, map2 (fun a b -> atom "r" [ a; b ]) t t);
        (2, map (fun a -> atom "t" [ a ]) t);
        (2, map3 (fun a b c -> atom "u" [ a; b; c ]) t t t);
        (1, map (fun a -> atom "nosuch" [ a ]) t);
        (* arity disagrees with the stored relation *)
        (1, map (fun a -> atom "r" [ a ]) t);
        (1, map3 (fun a b c -> atom "r" [ a; b; c ]) t t t);
        (1, map2 (fun a b -> atom "t" [ a; b ]) t t) ])

(* A safe query with a head of [arity] terms; bodies may be empty. *)
let gen_oracle_query arity =
  QCheck.Gen.(
    list_size (int_bound 3) gen_oracle_atom >>= fun body ->
    let vars = List.sort_uniq String.compare (List.concat_map Atom.vars body) in
    let gen_head_term =
      if vars = [] then map Term.c gen_value
      else
        frequency [ (3, map Term.v (oneofl vars)); (1, map Term.c gen_value) ]
    in
    list_repeat arity gen_head_term >|= fun head -> q (atom "ans" head) body)

let rename_vars (query : Query.t) =
  let rename =
    Atom.map_terms (function Term.Var x -> Term.Var ("W" ^ x) | t -> t)
  in
  Query.make (rename query.Query.head) (List.map rename query.Query.body)

(* A union with a duplicated and an alpha-equivalent member. *)
let gen_oracle_union =
  QCheck.Gen.(
    int_bound 2 >>= fun arity ->
    list_size (int_range 1 4) (gen_oracle_query arity) >>= fun qs ->
    pair (oneofl qs) (oneofl qs) >|= fun (dup, alpha) ->
    qs @ [ dup; rename_vars alpha ])

(* The engine's answers to [qs] against the oracle's: each member alone
   through [Eval], the union through [Eval] and through one [Plan] walk,
   with its per-member counts and [run_each]. *)
let agrees_with_oracle db qs =
  let assignments = List.map (Oracle.Nested_loop.assignments db) qs in
  let counts = List.map List.length assignments in
  let each =
    List.map2
      (fun qq bs -> tuple_set (List.map (Oracle.Nested_loop.head qq) bs))
      qs assignments
  in
  let union = tuple_set (List.concat each) in
  let fresh () = Relalg.Relation.create (Eval.head_schema (List.hd qs)) in
  let eval_ok =
    List.for_all2 (fun qq e -> holds e (Eval.run db qq)) qs each
    && List.map (fun qq -> Eval.run_union_into (fresh ()) db [ qq ]) qs = counts
    &&
    let out = fresh () in
    Eval.run_union_into out db qs = List.fold_left ( + ) 0 counts
    && holds union out
  in
  let plan_ok =
    let plan = Plan.build db qs in
    let out = fresh () in
    Plan.run_union_into out db plan = counts
    && holds union out
    && List.for_all2 holds each (Plan.run_each db plan)
  in
  eval_ok && plan_ok

let mismatches () = counter "cq.eval.arity_mismatch"

let prop_engine_matches_oracle =
  QCheck.Test.make ~name:"join engine = nested-loop oracle" ~count:300
    (QCheck.make
       ~print:(fun (_, qs) -> String.concat "\n" (List.map Query.to_string qs))
       QCheck.Gen.(pair gen_oracle_db gen_oracle_union))
    (fun (db, qs) ->
      let before = mismatches () in
      let agrees = agrees_with_oracle db qs in
      (* A body of wrong-arity atoms only visits one of them first. *)
      let mismatched (a : Atom.t) =
        match Relalg.Database.find_opt db a.Atom.pred with
        | Some rel ->
            Atom.arity a <> Relalg.Schema.arity (Relalg.Relation.schema rel)
        | None -> false
      in
      let lone_mismatch =
        List.exists
          (fun (qq : Query.t) ->
            qq.Query.body <> [] && List.for_all mismatched qq.Query.body)
          qs
      in
      agrees && ((not lone_mismatch) || mismatches () > before))

(* A product of unions over k first-group relations r<i> (0-4 rows) and
   m second-group ones s<j> (5-8 rows), joined on A: every r<i> comes
   first, so each r<i> node's children form a fan on A. The second group
   may also hold a missing relation and an s0 atom of the wrong arity;
   each r<i> row visits that atom once, fan or not. Returns the database,
   the union and the visits [cq.eval.arity_mismatch] must count in one
   walk. *)
let gen_product =
  QCheck.Gen.(
    pair (int_range 1 3) (int_range 2 4) >>= fun (k, m) ->
    let rows lo hi = list_size (int_range lo hi) (pair gen_value gen_value) in
    quad (list_repeat k (rows 0 4)) (list_repeat m (rows 5 8)) bool bool
    >>= fun (firsts, seconds, missing, mismatched) ->
    let db = Relalg.Database.create () in
    let fill prefix =
      List.iteri (fun i rs ->
          let r =
            Relalg.Database.create_relation db (Printf.sprintf "%s%d" prefix i)
              [ "a"; "b" ]
          in
          List.iter (fun (a, b) -> insert r [| a; b |]) rs)
    in
    fill "r" firsts;
    fill "s" seconds;
    let members =
      List.init m (fun j -> atom (Printf.sprintf "s%d" j) [ v "A"; v "C" ])
      @ (if missing then [ atom "nosuch" [ v "A"; v "C" ] ] else [])
      @ if mismatched then [ atom "s0" [ v "A"; v "C"; v "C" ] ] else []
    in
    shuffle_l members >|= fun members ->
    let qs =
      List.concat
        (List.init k (fun i ->
             List.map
               (fun s ->
                 q (atom "ans" [ v "B"; v "C" ])
                   [ atom (Printf.sprintf "r%d" i) [ v "A"; v "B" ]; s ])
               members))
    in
    let visits =
      if mismatched then List.fold_left (fun n rs -> n + List.length rs) 0 firsts
      else 0
    in
    (db, qs, visits))

let prop_product_matches_oracle =
  QCheck.Test.make ~name:"fanned product union = nested-loop oracle" ~count:300
    (QCheck.make
       ~print:(fun (_, qs, _) -> String.concat "\n" (List.map Query.to_string qs))
       gen_product)
    (fun (db, qs, visits) ->
      let plan = Plan.build db qs in
      let before = mismatches () in
      ignore
        (Plan.run_union_into
           (Relalg.Relation.create (Eval.head_schema (List.hd qs)))
           db plan
          : int list);
      mismatches () - before = visits && agrees_with_oracle db qs)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cq"
    [ ("eval",
       [ Alcotest.test_case "join" `Quick test_eval_join;
         Alcotest.test_case "constant filter" `Quick test_eval_constant_filter;
         Alcotest.test_case "repeated var" `Quick test_eval_repeated_var;
         Alcotest.test_case "missing relation" `Quick test_eval_missing_relation;
         Alcotest.test_case "unsafe raises" `Quick test_eval_unsafe_raises;
         Alcotest.test_case "cartesian" `Quick test_eval_cartesian ]);
      ("containment",
       [ Alcotest.test_case "classic" `Quick test_containment_classic;
         Alcotest.test_case "constants" `Quick test_containment_constants;
         Alcotest.test_case "head mismatch" `Quick test_containment_head_mismatch;
         Alcotest.test_case "equivalence" `Quick test_containment_equivalence;
         Alcotest.test_case "union" `Quick test_containment_union ]);
      ("minimize",
       [ Alcotest.test_case "redundant atom" `Quick test_minimize_redundant_atom;
         Alcotest.test_case "keeps necessary" `Quick test_minimize_keeps_necessary;
         Alcotest.test_case "duplicates" `Quick test_minimize_duplicates ]);
      ("query-helpers",
       [ Alcotest.test_case "helpers" `Quick test_query_helpers;
         Alcotest.test_case "unsafe detected" `Quick test_unsafe_query_detected ]);
      ("relax",
       [ Alcotest.test_case "exact hit" `Quick test_relax_exact_hit_needs_no_steps;
         Alcotest.test_case "generalises constant" `Quick
           test_relax_generalises_wrong_constant;
         Alcotest.test_case "drops atom" `Quick test_relax_drops_impossible_atom;
         Alcotest.test_case "gives up" `Quick test_relax_gives_up;
         Alcotest.test_case "single steps" `Quick test_relax_single_steps_enumerated ]);
      ("parser",
       [ Alcotest.test_case "basic" `Quick test_parser_basic;
         Alcotest.test_case "constants" `Quick test_parser_constants;
         Alcotest.test_case "qualified preds" `Quick test_parser_qualified_preds;
         Alcotest.test_case "errors" `Quick test_parser_errors;
         Alcotest.test_case "program" `Quick test_parser_program;
         Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip ]
       @ qc [ prop_parse_query_never_raises; prop_parse_program_never_raises ]);
      ("datalog",
       [ Alcotest.test_case "transitive closure" `Quick test_datalog_transitive_closure;
         Alcotest.test_case "unsafe rejected" `Quick test_datalog_unsafe_rule_rejected ]);
      ("signature",
       [ Alcotest.test_case "basics" `Quick test_signature_basics ]);
      ("plan",
       [ Alcotest.test_case "trie shape" `Quick test_plan_trie_shape;
         Alcotest.test_case "bindings reused counter" `Quick
           test_plan_bindings_reused_counter;
         Alcotest.test_case "arity mismatch counter" `Quick
           test_arity_mismatch_counter;
         Alcotest.test_case "fan over a product of unions" `Quick
           test_plan_fan_product;
         Alcotest.test_case "selective parent builds no union" `Quick
           test_plan_fan_guard ]
       @ qc
           [ prop_plan_matches_per_rewriting; prop_engine_matches_oracle;
             prop_product_matches_oracle ]);
      ("properties",
       qc
         [ prop_containment_sound; prop_minimize_preserves_answers;
           prop_self_containment; prop_signature_prefilter_exact;
           prop_signature_necessary ]) ]
