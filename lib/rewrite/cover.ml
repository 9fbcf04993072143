open Cq

type state = Subst.t

let empty = Subst.empty

(* A view none of whose body predicates occurs in [query] matches no
   subgoal, so it is dropped before the (allocating) freshening. The
   survivors keep the suffix of their position in the full list. *)
let prepare_views ~query views =
  let preds = Query.body_preds query in
  let relevant (v : Query.t) =
    List.exists
      (fun (b : Atom.t) -> List.exists (String.equal b.Atom.pred) preds)
      v.Query.body
  in
  let rec go i = function
    | [] -> []
    | v :: rest when relevant v ->
        Query.freshen ~suffix:(Printf.sprintf "~v%d" i) v :: go (i + 1) rest
    | _ :: rest -> go (i + 1) rest
  in
  go 0 views

let distinguished (view : Query.t) v = Query.is_distinguished view v

(* Match one argument position: query term [qterm] against view term
   [vterm] under [st]. *)
let match_pos ~view st qterm vterm =
  let vt = Subst.walk st vterm in
  match qterm with
  | Term.Const c -> (
      match vt with
      | Term.Const c' -> if Relalg.Value.equal c c' then Some st else None
      | Term.Var v ->
          if distinguished view v then Some (Subst.bind st v (Term.Const c))
          else None)
  | Term.Var x -> (
      match Subst.walk st (Term.Var x) with
      | Term.Var x' when String.equal x' x -> Some (Subst.bind st x vt)
      | prev -> (
          match (prev, vt) with
          | Term.Const c, Term.Const c' ->
              if Relalg.Value.equal c c' then Some st else None
          | Term.Const c, Term.Var v | Term.Var v, Term.Const c ->
              if distinguished view v then Some (Subst.bind st v (Term.Const c))
              else None
          | Term.Var v, Term.Var w ->
              if String.equal v w then Some st
              else if distinguished view v && distinguished view w then
                (* Head homomorphism: equate two distinguished vars. *)
                Some (Subst.bind st w (Term.Var v))
              else None))

let match_subgoal ~view st (g : Atom.t) (b : Atom.t) =
  if (not (String.equal g.Atom.pred b.Atom.pred)) || Atom.arity g <> Atom.arity b
  then None
  else
    let rec go st = function
      | [], [] -> Some st
      | qt :: qrest, vt :: vrest -> (
          match match_pos ~view st qt vt with
          | None -> None
          | Some st -> go st (qrest, vrest))
      | _ -> None
    in
    go st (g.Atom.args, b.Atom.args)

let image st x = Subst.walk st (Term.Var x)

let maps_to_existential ~view st x =
  match image st x with
  | Term.Const _ -> false
  | Term.Var v ->
      (* An unbound query variable is not mapped at all. *)
      (not (String.equal v x)) && not (distinguished view v)
