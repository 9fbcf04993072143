open Cq

type piece = {
  view : Query.t;
  state : Cover.state;
  images : (string * Term.t) list;
  equated : (string * string list) list;
}

(* Query variables mapped to the same distinguished view variable by
   one piece are equated in the rewriting: each group as its first
   member and the rest it is united with. The unions run in this
   (hashtable) order, which picks each class's representative, i.e.
   the variable name the rewriting uses. *)
let equated_of images =
  let by_image = Hashtbl.create 8 in
  List.iter
    (fun (x, image) ->
      match image with
      | Term.Var v when not (String.equal v x) ->
          let group = Option.value ~default:[] (Hashtbl.find_opt by_image v) in
          Hashtbl.replace by_image v (x :: group)
      | Term.Var _ | Term.Const _ -> ())
    images;
  Hashtbl.fold
    (fun _ group acc ->
      match group with [] | [ _ ] -> acc | x :: rest -> (x, rest) :: acc)
    by_image []
  |> List.rev

let piece ~view ~state ~covered ~query =
  let body = Array.of_list query.Query.body in
  let qvars =
    List.concat_map (fun i -> Atom.vars body.(i)) covered
    |> List.sort_uniq String.compare
  in
  let images = List.map (fun x -> (x, Cover.image state x)) qvars in
  { view; state; images; equated = equated_of images }

exception Conflict

let assemble ~fresh (q : Query.t) pieces =
  (* A union-find only when some piece equates variables; otherwise
     every variable is its own representative. *)
  let repr =
    if List.for_all (fun p -> p.equated = []) pieces then Fun.id
    else begin
      let uf = Util.Union_find.create () in
      List.iter
        (fun p ->
          List.iter
            (fun (x, rest) -> List.iter (Util.Union_find.union uf x) rest)
            p.equated)
        pieces;
      Util.Union_find.find uf
    end
  in
  (* Rewriting-side term for each (representative) query variable, as
     an association list (a later binding shadows an earlier one): it
     holds a handful of variables. *)
  let global = ref [] in
  let lookup key =
    List.find_map
      (fun (k, t) -> if String.equal k key then Some t else None)
      !global
  in
  try
    List.iter
      (fun p ->
        List.iter
          (fun (x, image) ->
            let key = repr x in
            match image with
            | Term.Const c -> (
                match lookup key with
                | Some (Term.Const c') when not (Relalg.Value.equal c c') ->
                    raise Conflict
                | Some (Term.Const _) -> ()
                | Some (Term.Var _) | None ->
                    global := (key, Term.Const c) :: !global)
            | Term.Var v ->
                if
                  (not (String.equal v x))
                  && Query.is_distinguished p.view v
                  && Option.is_none (lookup key)
                then global := (key, Term.Var key) :: !global)
          p.images)
      pieces;
    let atom_of_piece p =
      (* The covered query variable exposing distinguished view var [v]:
         the first one whose image it is. *)
      let exposing v =
        List.find_map
          (fun (x, image) ->
            match image with
            | Term.Var v' when String.equal v' v && not (String.equal v x) -> Some x
            | Term.Var _ | Term.Const _ -> None)
          p.images
      in
      let args =
        List.map
          (fun head_arg ->
            match Subst.walk p.state head_arg with
            | Term.Const c -> Term.Const c
            | Term.Var v -> (
                match exposing v with
                | Some x -> (
                    match lookup (repr x) with
                    | Some t -> t
                    | None -> Term.Var (repr x))
                | None -> Term.Var (fresh ())))
          p.view.Query.head.Atom.args
      in
      Atom.make p.view.Query.head.Atom.pred args
    in
    let body = List.map atom_of_piece pieces in
    let head_args =
      List.map
        (fun t ->
          match t with
          | Term.Const _ -> t
          | Term.Var x -> (
              match lookup (repr x) with
              | Some t -> t
              | None -> raise Conflict (* head variable not exposed *)))
        q.Query.head.Atom.args
    in
    Some { Query.head = Atom.make q.Query.head.Atom.pred head_args; body }
  with Conflict -> None
