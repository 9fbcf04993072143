module Smap = Map.Make (String)

type t = Term.t Smap.t

let empty = Smap.empty
let is_empty = Smap.is_empty
let bindings t = Smap.bindings t
let find t x = Smap.find_opt x t
let bind t x term = Smap.add x term t

let rec walk t term =
  match term with
  | Term.Const _ -> term
  | Term.Var x -> (
      match Smap.find_opt x t with None -> term | Some next -> walk t next)

let apply_atom t atom = Atom.map_terms (walk t) atom

let unify_term t a b =
  let a = walk t a and b = walk t b in
  match (a, b) with
  | Term.Const u, Term.Const v ->
      if Relalg.Value.equal u v then Some t else None
  | Term.Var x, Term.Var y when String.equal x y -> Some t
  | Term.Var x, other | other, Term.Var x -> Some (bind t x other)

let fold_args f t args_a args_b =
  let rec go t = function
    | [], [] -> Some t
    | a :: ra, b :: rb -> (
        match f t a b with None -> None | Some t -> go t (ra, rb))
    | _ -> None
  in
  go t (args_a, args_b)

let unify_atom t (a : Atom.t) (b : Atom.t) =
  if String.equal a.pred b.pred && Atom.arity a = Atom.arity b then
    fold_args unify_term t a.args b.args
  else None

(* One-way matching: only [pat]'s variables may be bound.  Callers must
   freeze the rigid side (replace its variables by unique constants, cf.
   Homomorphism.freeze) so that pattern variables can never collide with
   rigid variables through binding chains. *)
let match_term t pat rigid =
  match (walk t pat, rigid) with
  | Term.Const u, Term.Const v -> if Relalg.Value.equal u v then Some t else None
  | Term.Const _, Term.Var _ -> None
  | Term.Var x, other -> Some (bind t x other)

let match_atom t (pat : Atom.t) (rigid : Atom.t) =
  if String.equal pat.pred rigid.pred && Atom.arity pat = Atom.arity rigid then
    fold_args match_term t pat.args rigid.args
  else None

let pp fmt t =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map
          (fun (x, term) -> Printf.sprintf "%s -> %s" x (Term.to_string term))
          (Smap.bindings t)))
