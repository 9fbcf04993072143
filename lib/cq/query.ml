type t = { head : Atom.t; body : Atom.t list }

let make head body = { head; body }

let add_vars acc atom =
  List.fold_left
    (fun acc x -> if List.mem x acc then acc else x :: acc)
    acc (Atom.vars atom)

let vars t = List.rev (List.fold_left add_vars (add_vars [] t.head) t.body)
let head_vars t = Atom.vars t.head

let body_vars t = List.rev (List.fold_left add_vars [] t.body)

let existential_vars t =
  let hv = head_vars t in
  List.filter (fun x -> not (List.mem x hv)) (body_vars t)

let is_safe t =
  let bv = body_vars t in
  List.for_all (fun x -> List.mem x bv) (head_vars t)

let apply s t =
  { head = Subst.apply_atom s t.head; body = List.map (Subst.apply_atom s) t.body }

let freshen ~suffix t =
  let rename = function
    | Term.Var x -> Term.Var (x ^ suffix)
    | Term.Const _ as c -> c
  in
  { head = Atom.map_terms rename t.head; body = List.map (Atom.map_terms rename) t.body }

let rename_preds f t =
  let on_atom (a : Atom.t) = { a with Atom.pred = f a.Atom.pred } in
  { head = on_atom t.head; body = List.map on_atom t.body }

let body_preds t =
  List.fold_left
    (fun acc (a : Atom.t) -> if List.mem a.Atom.pred acc then acc else a.Atom.pred :: acc)
    [] t.body
  |> List.rev

let compare a b =
  match Atom.compare a.head b.head with
  | 0 -> List.compare Atom.compare a.body b.body
  | c -> c

let equal a b = compare a b = 0

let to_string t =
  Printf.sprintf "%s :- %s" (Atom.to_string t.head)
    (String.concat ", " (List.map Atom.to_string t.body))

let pp fmt t = Format.pp_print_string fmt (to_string t)

let size t = List.length t.body
