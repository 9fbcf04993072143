open Cq

type stats = {
  mcds_formed : int;
  combinations_tried : int;
  rewritings_produced : int;
}

module Iset = Set.Make (Int)

(* An MCD as the combine step uses it: its assembly piece and the set of
   subgoals it covers. *)
type mcd = { piece : Build.piece; cover : Iset.t }

(* All MCDs of [view] for query [q], whose body atoms and their
   variables are [body] and [body_vars]. Each MCD starts from one
   (subgoal, view-atom) seed and is closed under the forced-coverage
   rule: a query variable mapped to an existential view variable drags
   every subgoal mentioning it into the MCD. *)
let mcds_of_view (q : Query.t) ~body ~body_vars view =
  let n = Array.length body in
  let head_vars = Query.head_vars q in
  let subgoals_with x =
    List.filter (fun j -> List.mem x body_vars.(j)) (List.init n Fun.id)
  in
  let results = ref [] in
  (* Returns the subgoals forced by the variables of subgoal [j], or None
     when a distinguished query variable maps to an existential view
     variable (condition C1 of MiniCon). *)
  let forced_by st j =
    List.fold_left
      (fun acc x ->
        match acc with
        | None -> None
        | Some forced ->
            if Cover.maps_to_existential ~view st x then
              if List.mem x head_vars then None
              else Some (subgoals_with x @ forced)
            else Some forced)
      (Some []) body_vars.(j)
  in
  let rec close st covered = function
    | [] -> results := (st, covered) :: !results
    | j :: rest when Iset.mem j covered -> close st covered rest
    | j :: rest ->
        List.iter
          (fun b ->
            match Cover.match_subgoal ~view st body.(j) b with
            | None -> ()
            | Some st' -> (
                match forced_by st' j with
                | None -> ()
                | Some forced -> close st' (Iset.add j covered) (forced @ rest)))
          view.Query.body
  in
  (* Seed from every subgoal; dedupe solutions afterwards. *)
  for i = 0 to n - 1 do
    close Cover.empty Iset.empty [ i ]
  done;
  (* Structural key: the covered subgoals plus every binding resolved
     to its final term (constants compare by type and value). *)
  let canonical (st, covered) =
    ( Iset.elements covered,
      List.map (fun (x, t) -> (x, Subst.walk st t)) (Subst.bindings st) )
  in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (st, covered) ->
      let key = canonical (st, covered) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        let piece =
          Build.piece ~view ~state:st ~covered:(Iset.elements covered) ~query:q
        in
        Some { piece; cover = covered }
      end)
    !results

let rewrite ~views (q : Query.t) =
  let views = Cover.prepare_views ~query:q views in
  let body = Array.of_list q.Query.body in
  let body_vars = Array.map Atom.vars body in
  let mcds = List.concat_map (mcds_of_view q ~body ~body_vars) views in
  let n = Query.size q in
  let full = Iset.of_list (List.init n Fun.id) in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "~f%d" !counter
  in
  let combinations = ref 0 in
  let rewritings = ref [] in
  (* Exact-partition combination (justified by MCD minimality). *)
  let rec combine covered chosen =
    if Iset.equal covered full then begin
      incr combinations;
      match Build.assemble ~fresh q (List.rev chosen) with
      | Some r -> rewritings := Minimize.remove_duplicate_atoms r :: !rewritings
      | None -> ()
    end
    else
      let j = Iset.min_elt (Iset.diff full covered) in
      List.iter
        (fun m ->
          if Iset.mem j m.cover && Iset.disjoint m.cover covered then
            combine (Iset.union covered m.cover) (m.piece :: chosen))
        mcds
  in
  if n > 0 then combine Iset.empty [];
  (* Syntactic dedupe on sorted bodies, hash-set backed on the queries
     themselves: first occurrence wins, linear in the number of
     rewritings. *)
  let normalize (r : Query.t) =
    { r with Query.body = List.sort Atom.compare r.Query.body }
  in
  let seen_rewriting = Hashtbl.create 32 in
  let deduped =
    List.filter
      (fun r ->
        let nkey = normalize r in
        if Hashtbl.mem seen_rewriting nkey then false
        else begin
          Hashtbl.replace seen_rewriting nkey ();
          true
        end)
      !rewritings
  in
  ( deduped,
    {
      mcds_formed = List.length mcds;
      combinations_tried = !combinations;
      rewritings_produced = List.length deduped;
    } )

let expand ~views r = Unfold.expand views r

let is_contained_rewriting ~views r q =
  (* The target query's signature is loop-invariant; precompute it so
     each expansion pays only its own signature + (if compatible) the
     homomorphism search. *)
  let super = Signature.of_query q in
  List.for_all
    (fun e ->
      Containment.contained_in_with ~sub:(Signature.of_query e) ~super e q)
    (expand ~views r)
