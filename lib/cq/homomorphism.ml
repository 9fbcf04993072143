(* Frozen variables are encoded as string constants carrying a reserved
   prefix that cannot appear in real data (it contains a NUL byte). *)
let frozen_prefix = "\000frozen:"

let freeze_term = function
  | Term.Var x -> Term.Const (Relalg.Value.Str (frozen_prefix ^ x))
  | Term.Const _ as c -> c

let freeze_atom = Atom.map_terms freeze_term

(* Backtracking search. Atoms of [from] are matched in order against any
   compatible frozen atom of [onto]; substitution consistency prunes. *)
let find ?(init = Subst.empty) ~from onto =
  let onto = List.map freeze_atom onto in
  let by_pred = Hashtbl.create 16 in
  List.iter
    (fun (a : Atom.t) ->
      let existing = Option.value ~default:[] (Hashtbl.find_opt by_pred a.Atom.pred) in
      Hashtbl.replace by_pred a.Atom.pred (a :: existing))
    onto;
  let rec go subst = function
    | [] -> Some subst
    | atom :: rest ->
        let candidates =
          Option.value ~default:[]
            (Hashtbl.find_opt by_pred atom.Atom.pred)
        in
        let rec try_candidates = function
          | [] -> None
          | cand :: more -> (
              match Subst.match_atom subst atom cand with
              | None -> try_candidates more
              | Some subst' -> (
                  match go subst' rest with
                  | Some _ as result -> result
                  | None -> try_candidates more))
        in
        try_candidates candidates
  in
  go init from

let exists ?init ~from onto = Option.is_some (find ?init ~from onto)
