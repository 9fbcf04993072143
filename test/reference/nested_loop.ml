type binding = (string * Relalg.Value.t) list

let value_eq a b = Relalg.Value.compare a b = 0

(* Extend [b] across [args] against [row], if the row matches. *)
let rec extend b row i = function
  | [] -> Some b
  | Cq.Term.Const c :: args ->
      if value_eq c row.(i) then extend b row (i + 1) args else None
  | Cq.Term.Var x :: args -> (
      match List.assoc_opt x b with
      | Some v -> if value_eq v row.(i) then extend b row (i + 1) args else None
      | None -> extend ((x, row.(i)) :: b) row (i + 1) args)

let assignments db (query : Cq.Query.t) =
  List.fold_left
    (fun bindings (a : Cq.Atom.t) ->
      match Relalg.Database.find_opt db a.Cq.Atom.pred with
      | None -> []
      | Some rel ->
          let rows = Relalg.Relation.tuples rel in
          List.concat_map
            (fun b ->
              List.filter_map
                (fun row ->
                  if Array.length row <> Cq.Atom.arity a then None
                  else extend b row 0 a.Cq.Atom.args)
                rows)
            bindings)
    [ [] ] query.Cq.Query.body

let head (query : Cq.Query.t) b =
  Array.of_list
    (List.map
       (function Cq.Term.Const v -> v | Cq.Term.Var x -> List.assoc x b)
       query.Cq.Query.head.Cq.Atom.args)

let add rel row =
  if Relalg.Relation.mem rel row then false
  else begin
    Relalg.Relation.apply rel (Relalg.Relation.Delta.add row);
    true
  end

let run db (query : Cq.Query.t) =
  let h = query.Cq.Query.head in
  let out =
    Relalg.Relation.create
      (Relalg.Schema.make h.Cq.Atom.pred
         (List.init (Cq.Atom.arity h) (Printf.sprintf "a%d")))
  in
  List.iter (fun b -> ignore (add out (head query b) : bool)) (assignments db query);
  out
