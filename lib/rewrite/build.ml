open Cq

(* A view head argument in the rewriting: a constant, the query slot
   that exposes it, or a fresh variable. *)
type out = Fixed of Term.t | Exposed of int | Fresh

type piece = {
  view : Cover.template;
  images : (int * Cover.bound) list;
      (* the query slots occurring in the covered subgoals, sorted by
         name, each with its image under the state *)
  equated : (int * int list) list;  (* see [equated_of] *)
  args : out list;  (* the view head's arguments *)
}

(* Query slots mapped to the same view slot by one piece are equated in
   the rewriting: each group as its last member by name and the others,
   groups in the order their view slots first occur. The unions run in
   this order, which picks each class's representative, i.e. the
   variable name the rewriting uses. Most pieces equate nothing, which
   the first scan finds without allocating. *)
let equated_of images =
  let rec shares = function
    | [] -> false
    | (_, Cover.To v) :: rest ->
        List.exists (function _, Cover.To w -> v = w | _ -> false) rest
        || shares rest
    | _ :: rest -> shares rest
  in
  if not (shares images) then []
  else
    List.fold_left
      (fun groups (x, image) ->
        match image with
        | Cover.To v when List.mem_assoc v groups ->
            List.map (fun (w, xs) -> if v = w then (w, x :: xs) else (w, xs)) groups
        | Cover.To v -> groups @ [ (v, [ x ]) ]
        | Cover.Free | Cover.Is _ -> groups)
      [] images
    |> List.filter_map (function
         | _, x :: (_ :: _ as rest) -> Some (x, rest)
         | _ -> None)

let rec occurs_in (args : Cover.arg array) x k =
  k < Array.length args
  && ((match args.(k) with Cover.Slot y -> x = y | Cover.Lit _ -> false)
     || occurs_in args x (k + 1))

(* The covered query slot exposing view slot [v]: the first one whose
   image it is. *)
let rec exposing v = function
  | [] -> Fresh
  | (x, Cover.To v') :: _ when v = v' -> Exposed x
  | _ :: rest -> exposing v rest

let piece ~(view : Cover.template) ~state ~covered ~(query : Cover.template) =
  let by_name = query.Cover.by_name in
  let images = ref [] in
  for k = Array.length by_name - 1 downto 0 do
    let x = by_name.(k) in
    if List.exists (fun i -> occurs_in query.Cover.body.(i).Cover.args x 0) covered
    then images := (x, Cover.image state x) :: !images
  done;
  let images = !images in
  let head = view.Cover.head.Cover.args in
  let args = ref [] in
  for k = Array.length head - 1 downto 0 do
    let arg =
      match Cover.resolve state head.(k) with
      | Cover.Is c -> Fixed (Term.Const c)
      | Cover.To v -> exposing v images
      | Cover.Free -> assert false
    in
    args := arg :: !args
  done;
  { view; images; equated = equated_of images; args = !args }

exception Conflict

(* The representative of each query slot once every piece's equated
   groups are united: union by rank, the first argument's root winning
   a tie. *)
let representatives n pieces =
  let parent = Array.init n Fun.id and rank = Array.make n 0 in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let root = find parent.(x) in
      parent.(x) <- root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then
      if rank.(ra) < rank.(rb) then parent.(ra) <- rb
      else if rank.(ra) > rank.(rb) then parent.(rb) <- ra
      else begin
        parent.(rb) <- ra;
        rank.(ra) <- rank.(ra) + 1
      end
  in
  List.iter
    (fun p -> List.iter (fun (x, rest) -> List.iter (union x) rest) p.equated)
    pieces;
  find

(* Fill [global], the rewriting-side term of each (representative)
   query slot, from the pieces' images: a constant, or the slot's own
   variable when it maps to a distinguished view variable. Raises
   [Conflict] on two constants for one slot. *)
let rec bind_images (q : Cover.template) repr global (p : piece) = function
  | [] -> ()
  | (x, image) :: rest ->
      let key = repr x in
      (match image with
      | Cover.Is c -> (
          match global.(key) with
          | Some (Term.Const c') when not (Relalg.Value.equal c c') -> raise Conflict
          | Some (Term.Const _) -> ()
          | Some (Term.Var _) | None -> global.(key) <- Some (Term.Const c))
      | Cover.To v ->
          if p.view.Cover.distinguished.(v) && Option.is_none global.(key) then
            global.(key) <- Some q.Cover.vars.(key)
      | Cover.Free -> ());
      bind_images q repr global p rest

let assemble ~fresh (q : Cover.template) pieces =
  let n = Array.length q.Cover.vars in
  (* Representatives only when some piece equates slots; otherwise
     every slot is its own. *)
  let repr =
    if List.for_all (fun p -> p.equated = []) pieces then Fun.id
    else representatives n pieces
  in
  let global = Array.make n None in
  let term_of = function
    | Fixed t -> t
    | Exposed x -> (
        let x = repr x in
        match global.(x) with Some t -> t | None -> q.Cover.vars.(x))
    | Fresh -> Term.Var (fresh ())
  in
  try
    List.iter (fun p -> bind_images q repr global p p.images) pieces;
    let body =
      List.map
        (fun p -> Atom.make p.view.Cover.head.Cover.pred (List.map term_of p.args))
        pieces
    in
    let source = q.Cover.query.Query.head in
    let head_args =
      List.mapi
        (fun i t ->
          match q.Cover.head.Cover.args.(i) with
          | Cover.Lit _ -> t
          | Cover.Slot x -> (
              match global.(repr x) with
              | Some t -> t
              | None -> raise Conflict (* head variable not exposed *)))
        source.Atom.args
    in
    Some { Query.head = Atom.make source.Atom.pred head_args; body }
  with Conflict -> None
