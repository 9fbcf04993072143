type t = {
  head_arity : int;
  preds : (string * int) list;  (* sorted by predicate name *)
}

(* The body's predicate names sorted, then counted run by run. *)
let of_query (q : Query.t) =
  let rec count = function
    | [] -> []
    | p :: rest -> (
        match count rest with
        | (p', c) :: counted when String.equal p p' -> (p, c + 1) :: counted
        | counted -> (p, 1) :: counted)
  in
  {
    head_arity = Atom.arity q.Query.head;
    preds =
      count
        (List.sort String.compare
           (List.map (fun (a : Atom.t) -> a.Atom.pred) q.Query.body));
  }

(* Every predicate name of [smaller] occurs in [larger]; both sorted. *)
let rec pred_names_subset smaller larger =
  match (smaller, larger) with
  | [], _ -> true
  | _ :: _, [] -> false
  | (p, _) :: ps, (q, _) :: qs -> (
      match String.compare p q with
      | 0 -> pred_names_subset ps qs
      | c when c > 0 -> pred_names_subset smaller qs
      | _ -> false)

let compatible ~sub ~super =
  sub.head_arity = super.head_arity
  && pred_names_subset super.preds sub.preds
