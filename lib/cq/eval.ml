module Smap = Map.Make (String)

type binding = Relalg.Value.t Smap.t

(* Every function here evaluates one query at a time as a one-path
   {!Plan}: the same compiled steps the batch walk runs. *)

let head_schema = Plan.head_schema

let run_bindings db q =
  let acc = ref [] in
  Plan.iter_assignments db (Plan.of_query db q) (fun vars env ->
      let b = ref Smap.empty in
      Array.iteri (fun i x -> b := Smap.add x env.(i) !b) vars;
      acc := !b :: !acc);
  List.rev !acc

let run_union_into out db qs =
  List.fold_left
    (fun attempts q ->
      List.fold_left ( + ) attempts
        (Plan.run_union_into out db (Plan.of_query db q)))
    0 qs

let run db q =
  let out = Relalg.Relation.create (head_schema q) in
  ignore (run_union_into out db [ q ] : int);
  out
