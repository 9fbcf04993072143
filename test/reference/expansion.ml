open Cq

(* Global-as-view unfolding: a view is a definitional rule for its head
   predicate, and a defined body atom is replaced by each of its rules'
   (freshened) bodies in turn, so one rewriting unfolds to a union. *)

let definitions_for views pred =
  List.filter (fun (r : Query.t) -> String.equal r.Query.head.Atom.pred pred) views

let expand_atom ~fresh (q : Query.t) (atom : Atom.t) (rule : Query.t) =
  let rule = Query.freshen ~suffix:(fresh ()) rule in
  match Subst.unify_atom Subst.empty atom rule.Query.head with
  | None -> None
  | Some mgu ->
      let body =
        List.concat_map
          (fun a ->
            if a == atom then List.map (Subst.apply_atom mgu) rule.Query.body
            else [ Subst.apply_atom mgu a ])
          q.Query.body
      in
      Some { Query.head = Subst.apply_atom mgu q.Query.head; body }

let expand ?(max_depth = 12) ~views (q : Query.t) =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "~u%d" !counter
  in
  let defined pred = definitions_for views pred <> [] in
  (* Depth-first over (query, remaining budget); a query is emitted when
     no body atom is defined. *)
  let results = ref [] in
  let rec go q budget =
    match List.find_opt (fun (a : Atom.t) -> defined a.Atom.pred) q.Query.body with
    | None -> results := q :: !results
    | Some atom ->
        if budget > 0 then
          List.iter
            (fun rule ->
              match expand_atom ~fresh q atom rule with
              | None -> ()
              | Some q' -> go q' (budget - 1))
            (definitions_for views atom.Atom.pred)
  in
  go q max_depth;
  List.rev !results

let is_contained_rewriting ~views r q =
  (* The target query's signature is loop-invariant; precompute it so
     each expansion pays only its own signature + (if compatible) the
     homomorphism search. *)
  let super = Cq.Signature.of_query q in
  List.for_all
    (fun e ->
      Cq.Containment.contained_in_with ~sub:(Cq.Signature.of_query e) ~super e
        q)
    (expand ~views r)
