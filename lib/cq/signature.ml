type t = {
  head_arity : int;
  preds : (string * int) list;  (* sorted by predicate name *)
}

let of_query (q : Query.t) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (a : Atom.t) ->
      Hashtbl.replace counts a.Atom.pred
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.Atom.pred)))
    q.Query.body;
  {
    head_arity = Atom.arity q.Query.head;
    preds =
      Hashtbl.fold (fun p c acc -> (p, c) :: acc) counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
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
