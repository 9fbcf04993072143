(* Tests for answering queries using views: MiniCon, Bucket, GLAV. *)

open Cq
module Minicon = Rewrite.Minicon
module Bucket = Reference.Bucket

let v = Term.v
let s = Term.str
let atom = Atom.make
let q head body = Query.make head body
let check_i = Alcotest.(check int)
let check_b = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* MiniCon unit tests *)

let test_minicon_identity_view () =
  let view = q (atom "v1" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let query = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let rewritings, stats = Minicon.rewrite ~views:[ view ] query in
  check_i "one rewriting" 1 (List.length rewritings);
  check_i "stats agree" 1 stats.Minicon.rewritings_produced;
  check_b "contained" true
    (Minicon.is_contained_rewriting ~views:[ view ] (List.hd rewritings) query)

let test_minicon_join_across_views () =
  (* q(x) :- r(x,y), s(y,z) answered by v_r and v_s. *)
  let vr = q (atom "vr" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let vs = q (atom "vs" [ v "A" ]) [ atom "s" [ v "A"; v "B" ] ] in
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  let rewritings, _ = Minicon.rewrite ~views:[ vr; vs ] query in
  check_i "one rewriting" 1 (List.length rewritings);
  let r = List.hd rewritings in
  check_i "two view atoms" 2 (Query.size r);
  check_b "contained" true (Minicon.is_contained_rewriting ~views:[ vr; vs ] r query)

let test_minicon_existential_closure () =
  (* A view hiding the join variable must cover both subgoals at once. *)
  let v_pair =
    q (atom "vp" [ v "A" ]) [ atom "r" [ v "A"; v "B" ]; atom "s" [ v "B"; v "C" ] ]
  in
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  let rewritings, stats = Minicon.rewrite ~views:[ v_pair ] query in
  check_i "single-view rewriting" 1 (List.length rewritings);
  check_i "one atom" 1 (Query.size (List.hd rewritings));
  check_b "mcd count is 1" true (stats.Minicon.mcds_formed = 1)

let test_minicon_hidden_join_var_fails () =
  (* v(a) :- r(a,b) hides b; it cannot answer q needing b joined to s,
     and no view covers s, so there is no rewriting. *)
  let vr = q (atom "vr" [ v "A" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let vs = q (atom "vs" [ v "A" ]) [ atom "s" [ v "A"; v "B" ] ] in
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  let rewritings, _ = Minicon.rewrite ~views:[ vr; vs ] query in
  check_i "no rewriting" 0 (List.length rewritings)

let test_minicon_distinguished_head_var_required () =
  (* The view projects away the variable the query head needs. *)
  let view = q (atom "v1" [ v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let query = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let rewritings, _ = Minicon.rewrite ~views:[ view ] query in
  check_i "no rewriting" 0 (List.length rewritings)

let test_minicon_constant_in_query () =
  let view = q (atom "v1" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let query = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "cs" ] ] in
  let rewritings, _ = Minicon.rewrite ~views:[ view ] query in
  check_i "one rewriting" 1 (List.length rewritings);
  let r = List.hd rewritings in
  check_b "constant pushed into view atom" true
    (List.exists
       (fun (a : Atom.t) -> List.exists (fun t -> Term.equal t (s "cs")) a.Atom.args)
       r.Query.body)

let test_minicon_constant_in_view () =
  (* View fixes dept='cs'; it answers the query asking for 'cs' but the
     rewriting must not be produced for dept='ee'. *)
  let view = q (atom "vcs" [ v "A" ]) [ atom "r" [ v "A"; s "cs" ] ] in
  let q_cs = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "cs" ] ] in
  let q_ee = q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; s "ee" ] ] in
  check_i "cs answered" 1 (List.length (fst (Minicon.rewrite ~views:[ view ] q_cs)));
  check_i "ee not answered" 0 (List.length (fst (Minicon.rewrite ~views:[ view ] q_ee)))

let test_minicon_multiple_rewritings () =
  let v1 = q (atom "v1" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let v2 = q (atom "v2" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let query = q (atom "q" [ v "X"; v "Y" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let rewritings, _ = Minicon.rewrite ~views:[ v1; v2 ] query in
  check_i "two alternatives" 2 (List.length rewritings)

(* ------------------------------------------------------------------ *)
(* Bucket unit tests *)

let test_bucket_agrees_on_simple_case () =
  let vr = q (atom "vr" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let vs = q (atom "vs" [ v "A" ]) [ atom "s" [ v "A"; v "B" ] ] in
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  let mc, _ = Minicon.rewrite ~views:[ vr; vs ] query in
  let bk, bstats = Bucket.rewrite ~views:[ vr; vs ] query in
  check_i "same count" (List.length mc) (List.length bk);
  check_b "bucket tried at least as many candidates" true
    (bstats.Bucket.candidates_tried >= List.length bk)

let test_bucket_rejects_invalid_combination () =
  (* vr hides the join var: bucket generates the candidate but the
     containment check rejects it. *)
  let vr = q (atom "vr" [ v "A" ]) [ atom "r" [ v "A"; v "B" ] ] in
  let vs = q (atom "vs" [ v "A" ]) [ atom "s" [ v "A"; v "B" ] ] in
  let query =
    q (atom "q" [ v "X" ]) [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  let bk, bstats = Bucket.rewrite ~views:[ vr; vs ] query in
  check_i "no valid rewriting" 0 (List.length bk);
  check_b "but candidates were tried" true (bstats.Bucket.candidates_tried > 0)

(* ------------------------------------------------------------------ *)
(* End-to-end soundness: evaluate rewritings over view extensions. *)

let base_db prng n =
  let db = Relalg.Database.create () in
  let r = Relalg.Database.create_relation db "r" [ "a"; "b" ] in
  let t = Relalg.Database.create_relation db "s" [ "a"; "b" ] in
  for _ = 1 to n do
    Cq.Eval.add_distinct r
      [| Relalg.Value.Int (Util.Prng.int prng 6);
         Relalg.Value.Int (Util.Prng.int prng 6) |];
    Cq.Eval.add_distinct t
      [| Relalg.Value.Int (Util.Prng.int prng 6);
         Relalg.Value.Int (Util.Prng.int prng 6) |]
  done;
  db

(* Materialise view extensions into a fresh database. *)
let view_db db views =
  let out = Relalg.Database.create () in
  List.iter
    (fun (view : Query.t) ->
      let rel = Eval.run db view in
      let renamed =
        Relalg.Relation.of_tuples
          (Relalg.Schema.make view.Query.head.Atom.pred
             (Relalg.Schema.attrs (Relalg.Relation.schema rel)))
          (Relalg.Relation.tuples rel)
      in
      Relalg.Database.add_relation out renamed)
    views;
  out

let answers db query =
  Relalg.Relation.tuples (Eval.run db query)
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort compare

let union_answers db queries =
  List.concat_map (answers db) queries |> List.sort_uniq compare

let test_end_to_end_soundness () =
  let prng = Util.Prng.create 2003 in
  let views =
    [ q (atom "v1" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ];
      q (atom "v2" [ v "A"; v "B" ]) [ atom "s" [ v "A"; v "B" ] ];
      q (atom "v3" [ v "A"; v "C" ])
        [ atom "r" [ v "A"; v "B" ]; atom "s" [ v "B"; v "C" ] ] ]
  in
  let query =
    q (atom "q" [ v "X"; v "Z" ])
      [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
  in
  for _ = 1 to 10 do
    let db = base_db prng 15 in
    let vdb = view_db db views in
    let expected = answers db query in
    let mc, _ = Minicon.rewrite ~views query in
    let got = union_answers vdb mc in
    (* Soundness: every rewriting answer is a certain answer. *)
    check_b "minicon sound" true (List.for_all (fun x -> List.mem x expected) got);
    (* Completeness on this workload: views fully cover the query. *)
    check_b "minicon complete here" true
      (List.for_all (fun x -> List.mem x got) expected);
    (* Bucket and MiniCon agree as unions. *)
    let bk, _ = Bucket.rewrite ~views query in
    check_b "bucket = minicon answers" true (union_answers vdb bk = got)
  done

(* ------------------------------------------------------------------ *)
(* Property: random chain queries and random subchain views. *)

let prop_minicon_sound_random =
  QCheck.Test.make ~name:"minicon rewritings are contained in query" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, len) ->
      let prng = Util.Prng.create seed in
      (* Chain query q(x0,xlen) :- e(x0,x1), ..., e(x{len-1},xlen). *)
      let xs = List.init (len + 1) (fun i -> Printf.sprintf "X%d" i) in
      let body =
        List.init len (fun i ->
            atom "e" [ v (List.nth xs i); v (List.nth xs (i + 1)) ])
      in
      let query = q (atom "q" [ v (List.hd xs); v (List.nth xs len) ]) body in
      (* Random subchain views of length 1-2 with random head exposure. *)
      let views =
        List.init 4 (fun k ->
            let start = Util.Prng.int prng len in
            let vlen = min (1 + Util.Prng.int prng 2) (len - start) in
            let vbody =
              List.init vlen (fun i ->
                  atom "e"
                    [ v (Printf.sprintf "A%d" (start + i));
                      v (Printf.sprintf "A%d" (start + i + 1)) ])
            in
            let head_args =
              [ v (Printf.sprintf "A%d" start); v (Printf.sprintf "A%d" (start + vlen)) ]
            in
            q (atom (Printf.sprintf "w%d" k) head_args) vbody)
      in
      let rewritings, _ = Minicon.rewrite ~views query in
      List.for_all
        (fun r -> Minicon.is_contained_rewriting ~views r query)
        rewritings)

let prop_minicon_bucket_equivalent =
  QCheck.Test.make ~name:"minicon and bucket produce equivalent unions" ~count:30
    (QCheck.make QCheck.Gen.(int_bound 1000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let views =
        [ q (atom "v1" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ];
          q (atom "v2" [ v "B"; v "C" ]) [ atom "s" [ v "B"; v "C" ] ];
          q (atom "v3" [ v "A"; v "C" ])
            [ atom "r" [ v "A"; v "B" ]; atom "s" [ v "B"; v "C" ] ] ]
      in
      let query =
        q (atom "q" [ v "X"; v "Z" ])
          [ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y"; v "Z" ] ]
      in
      let db = base_db prng 12 in
      let vdb = view_db db views in
      let mc, _ = Minicon.rewrite ~views query in
      let bk, _ = Bucket.rewrite ~views query in
      union_answers vdb mc = union_answers vdb bk)

let prop_minicon_complete_with_identity_views =
  QCheck.Test.make ~name:"identity views preserve all answers" ~count:80
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = base_db prng 12 in
      (* Identity views over both base relations. *)
      let views =
        [ q (atom "vr" [ v "A"; v "B" ]) [ atom "r" [ v "A"; v "B" ] ];
          q (atom "vs" [ v "A"; v "B" ]) [ atom "s" [ v "A"; v "B" ] ] ]
      in
      (* A random 1-3 atom safe query over r/s. *)
      let pool = [| "X"; "Y"; "Z"; "W" |] in
      let rand_var () = v (Util.Prng.pick_arr prng pool) in
      let body =
        List.init (1 + Util.Prng.int prng 3) (fun _ ->
            atom (if Util.Prng.bool prng then "r" else "s")
              [ rand_var (); rand_var () ])
      in
      let head_var =
        match List.concat_map Atom.vars body with
        | x :: _ -> x
        | [] -> "X"
      in
      let query = q (atom "q" [ v head_var ]) body in
      let expected = answers db query in
      let rewritings, _ = Minicon.rewrite ~views query in
      let got = union_answers (view_db db views) rewritings in
      got = expected)

(* Constants of different types render alike through Value.to_string
   ([Str "1"] and [Int 1] are both 1) but are different values: MCDs,
   and the rewritings built from them, that differ only in a constant's
   type must all survive MiniCon's dedupes. *)
let test_minicon_keeps_constant_types () =
  let view =
    q (atom "w" [ v "A" ])
      [ atom "r" [ v "A"; s "1" ]; atom "r" [ v "A"; Term.int 1 ] ]
  in
  let query = q (atom "q" [ v "X"; v "Y" ]) [ atom "r" [ v "X"; v "Y" ] ] in
  let rewritings, stats = Minicon.rewrite ~views:[ view ] query in
  check_i "one MCD per view atom" 2 stats.Minicon.mcds_formed;
  check_i "one rewriting per constant" 2 stats.Minicon.rewritings_produced;
  let heads =
    List.map (fun (r : Query.t) -> List.nth r.Query.head.Atom.args 1) rewritings
  in
  check_b "Y bound to '1' and to 1" true
    (List.sort Term.compare heads = List.sort Term.compare [ s "1"; Term.int 1 ])

(* A view sharing no predicate with the query forms no MCD, so adding
   such views changes nothing: not the rewritings, their fresh names or
   their order, and not the stats. *)
let prop_minicon_ignores_unrelated_views =
  QCheck.Test.make ~name:"views over other predicates change nothing" ~count:100
    (QCheck.make QCheck.Gen.(int_bound 100_000) ~print:string_of_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let pool = [| "A"; "B"; "C" |] in
      let rand_var () = v (Util.Prng.pick_arr prng pool) in
      let rand_view name preds =
        let body =
          List.init (1 + Util.Prng.int prng 2) (fun _ ->
              atom (Util.Prng.pick_arr prng preds) [ rand_var (); rand_var () ])
        in
        q (atom name (List.map v (List.concat_map Atom.vars body))) body
      in
      let views =
        List.init 3 (fun k -> rand_view (Printf.sprintf "w%d" k) [| "r"; "s" |])
      in
      let unrelated =
        List.init 3 (fun k -> rand_view (Printf.sprintf "u%d" k) [| "t"; "u" |])
      in
      (* Unrelated views before, between and after the others, so every
         related view sits at a different position than alone. *)
      let mixed =
        List.concat (List.map2 (fun u w -> [ u; w ]) unrelated views) @ unrelated
      in
      let body =
        List.init (1 + Util.Prng.int prng 3) (fun _ ->
            atom (if Util.Prng.bool prng then "r" else "s")
              [ v (Util.Prng.pick_arr prng [| "X"; "Y"; "Z" |]);
                v (Util.Prng.pick_arr prng [| "X"; "Y"; "Z" |]) ])
      in
      let query =
        q (atom "q" [ v (List.hd (List.concat_map Atom.vars body)) ]) body
      in
      let render (rs, st) = (List.map Query.to_string rs, st) in
      render (Minicon.rewrite ~views query)
      = render (Minicon.rewrite ~views:mixed query))

(* ------------------------------------------------------------------ *)
(* Glav *)

let test_glav_split () =
  let lhs = q (atom "m" [ v "X" ]) [ atom "src" [ v "X"; v "Y" ] ] in
  let rhs = q (atom "m" [ v "X" ]) [ atom "tgt" [ v "X" ] ] in
  let g = Rewrite.Glav.make Rewrite.Glav.Inclusion ~lhs ~rhs in
  let rule, view = Rewrite.Glav.split g ~mapping_pred:"M7" in
  check_b "rule head renamed" true (String.equal rule.Query.head.Atom.pred "M7");
  check_b "view head renamed" true (String.equal view.Query.head.Atom.pred "M7");
  check_b "inclusion not reversible" true (Rewrite.Glav.reversed g = None);
  let e = Rewrite.Glav.make Rewrite.Glav.Equality ~lhs ~rhs in
  check_b "equality reversible" true (Rewrite.Glav.reversed e <> None)

let test_glav_arity_mismatch () =
  let lhs = q (atom "m" [ v "X"; v "Y" ]) [ atom "src" [ v "X"; v "Y" ] ] in
  let rhs = q (atom "m" [ v "X" ]) [ atom "tgt" [ v "X" ] ] in
  check_b "raises" true
    (try
       ignore (Rewrite.Glav.make Rewrite.Glav.Inclusion ~lhs ~rhs);
       false
     with Invalid_argument _ -> true)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rewrite"
    [ ("minicon",
       [ Alcotest.test_case "identity view" `Quick test_minicon_identity_view;
         Alcotest.test_case "join across views" `Quick test_minicon_join_across_views;
         Alcotest.test_case "existential closure" `Quick test_minicon_existential_closure;
         Alcotest.test_case "hidden join var" `Quick test_minicon_hidden_join_var_fails;
         Alcotest.test_case "head var required" `Quick
           test_minicon_distinguished_head_var_required;
         Alcotest.test_case "constant in query" `Quick test_minicon_constant_in_query;
         Alcotest.test_case "constant in view" `Quick test_minicon_constant_in_view;
         Alcotest.test_case "multiple rewritings" `Quick
           test_minicon_multiple_rewritings;
         Alcotest.test_case "constant types kept apart" `Quick
           test_minicon_keeps_constant_types ]);
      ("bucket",
       [ Alcotest.test_case "agrees on simple case" `Quick test_bucket_agrees_on_simple_case;
         Alcotest.test_case "rejects invalid combos" `Quick
           test_bucket_rejects_invalid_combination ]);
      ("end-to-end", [ Alcotest.test_case "soundness" `Quick test_end_to_end_soundness ]);
      ("glav",
       [ Alcotest.test_case "split" `Quick test_glav_split;
         Alcotest.test_case "arity mismatch" `Quick test_glav_arity_mismatch ]);
      ("properties",
       qc
         [ prop_minicon_sound_random; prop_minicon_bucket_equivalent;
           prop_minicon_complete_with_identity_views;
           prop_minicon_ignores_unrelated_views ]) ]
