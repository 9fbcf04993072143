open Cq

type stats = {
  mcds_formed : int;
  combinations_tried : int;
  rewritings_produced : int;
}

module Iset = Set.Make (Int)

(* An MCD as the combine step uses it: its assembly piece and the set of
   subgoals it covers. *)
type mcd = { piece : Build.piece; cover : Iset.t }

(* The distinct slots of an atom, in first-occurrence order. *)
let atom_slots (a : Cover.catom) =
  Array.fold_left
    (fun acc -> function
      | Cover.Slot x when not (List.mem x acc) -> x :: acc
      | Cover.Slot _ | Cover.Lit _ -> acc)
    [] a.Cover.args
  |> List.rev

(* The subgoals mentioning query slot [x], in order. *)
let subgoals_with atom_vars x =
  let acc = ref [] in
  for j = Array.length atom_vars - 1 downto 0 do
    if List.mem x atom_vars.(j) then acc := j :: !acc
  done;
  !acc

(* The subgoals forced by slots [xs] under [st], consed onto [acc]
   (each slot's in front of the previous ones'); raises [Exit] when a
   distinguished query variable maps to an existential view variable
   (condition C1 of MiniCon). *)
let rec forced ~view (q : Cover.template) atom_vars st acc = function
  | [] -> acc
  | x :: xs ->
      if Cover.maps_to_existential ~view st x then
        if q.Cover.distinguished.(x) then raise Exit
        else forced ~view q atom_vars st (subgoals_with atom_vars x @ acc) xs
      else forced ~view q atom_vars st acc xs

(* Close a partial MCD under the forced-coverage rule: a query variable
   mapped to an existential view variable drags every subgoal
   mentioning it into the MCD. Each complete solution is consed onto
   [results], in search order. *)
let rec close ~view (q : Cover.template) atom_vars results st covered = function
  | [] -> (st, covered) :: results
  | j :: rest when Iset.mem j covered -> close ~view q atom_vars results st covered rest
  | j :: rest ->
      let results = ref results in
      Array.iter
        (fun b ->
          match Cover.match_subgoal ~view st q.Cover.body.(j) b with
          | None -> ()
          | Some st' -> (
              match forced ~view q atom_vars st' [] atom_vars.(j) @ rest with
              | exception Exit -> ()
              | pending ->
                  results :=
                    close ~view q atom_vars !results st' (Iset.add j covered) pending))
        view.Cover.body;
      !results

(* Two solutions are one MCD when they cover the same subgoals and bind
   every slot alike (constants compare by type and value); the first in
   [results] order stands. *)
let rec distinct kept = function
  | [] -> List.rev kept
  | ((st, covered) as r) :: rest ->
      if
        List.exists
          (fun (st', covered') -> Iset.equal covered covered' && Cover.same st st')
          kept
      then distinct kept rest
      else distinct (r :: kept) rest

(* The MCDs of [view] for query [q], whose subgoals' slots are
   [atom_vars], consed in front of [acc]. Each MCD starts from one
   (subgoal, view-atom) seed, newest solution first. *)
let mcds_of_view (q : Cover.template) atom_vars (view : Cover.template) acc =
  let empty = Cover.start ~query:q ~view in
  let results = ref [] in
  for i = 0 to Array.length q.Cover.body - 1 do
    results := close ~view q atom_vars !results empty Iset.empty [ i ]
  done;
  let solutions =
    match !results with ([] | [ _ ]) as one -> one | all -> distinct [] all
  in
  List.fold_right
    (fun (st, covered) acc ->
      let piece =
        Build.piece ~view ~state:st ~covered:(Iset.elements covered) ~query:q
      in
      { piece; cover = covered } :: acc)
    solutions acc

(* The largest [n] of a variable named [~f<n>] in [q]: the query of a
   later search step can hold names an earlier step made. *)
let fresh_floor (q : Cover.template) =
  Array.fold_left
    (fun acc -> function
      | Term.Var x when String.length x > 2 && x.[0] = '~' && x.[1] = 'f' -> (
          match int_of_string_opt (String.sub x 2 (String.length x - 2)) with
          | Some k when k > acc -> k
          | Some _ | None -> acc)
      | Term.Var _ | Term.Const _ -> acc)
    0 q.Cover.vars

let rewrite_prepared ~views (q : Query.t) =
  let cq = Cover.compile q in
  let atom_vars = Array.map atom_slots cq.Cover.body in
  let mcds = List.fold_right (mcds_of_view cq atom_vars) views [] in
  let n = Query.size q in
  let full = Iset.of_list (List.init n Fun.id) in
  let counter = ref (fresh_floor cq) in
  let fresh () =
    incr counter;
    "~f" ^ string_of_int !counter
  in
  let combinations = ref 0 in
  let rewritings = ref [] in
  (* Exact-partition combination (justified by MCD minimality). *)
  let rec combine covered chosen =
    if Iset.equal covered full then begin
      incr combinations;
      match Build.assemble ~fresh cq (List.rev chosen) with
      | Some r -> rewritings := Minimize.remove_duplicate_atoms r :: !rewritings
      | None -> ()
    end
    else
      let j = Iset.min_elt (Iset.diff full covered) in
      List.iter
        (fun m ->
          if Iset.mem j m.cover && Iset.disjoint m.cover covered then
            combine (Iset.union covered m.cover) (m.piece :: chosen))
        mcds
  in
  if n > 0 then combine Iset.empty [];
  (* Syntactic dedupe on sorted bodies: first occurrence wins. The
     rewritings are sorted stably by body, then head, so each run of
     equal ones starts with its first occurrence: O(r log r)
     comparisons, no hashing. *)
  let deduped =
    match !rewritings with
    | ([] | [ _ ]) as one -> one
    | all ->
        let arr = Array.of_list all in
        let bodies =
          Array.map (fun (r : Query.t) -> List.sort Atom.compare r.Query.body) arr
        in
        let compare i j =
          match List.compare Atom.compare bodies.(i) bodies.(j) with
          | 0 -> Atom.compare arr.(i).Query.head arr.(j).Query.head
          | c -> c
        in
        let order = Array.init (Array.length arr) Fun.id in
        Array.stable_sort compare order;
        let repeat = Array.make (Array.length arr) false in
        for k = 1 to Array.length order - 1 do
          if compare order.(k - 1) order.(k) = 0 then repeat.(order.(k)) <- true
        done;
        List.filteri (fun i _ -> not repeat.(i)) all
  in
  ( deduped,
    {
      mcds_formed = List.length mcds;
      combinations_tried = !combinations;
      rewritings_produced = List.length deduped;
    } )

(* Only views sharing a body predicate with [q] can cover a subgoal. *)
let rewrite ~views (q : Query.t) =
  let preds = Query.body_preds q in
  let relevant (v : Query.t) =
    List.exists (fun (b : Atom.t) -> List.mem b.Atom.pred preds) v.Query.body
  in
  rewrite_prepared
    ~views:
      (List.filter_map
         (fun v -> if relevant v then Some (Cover.compile v) else None)
         views)
    q
