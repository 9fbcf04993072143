open Cq

module Smap = Eval.Smap

type t = {
  view : Query.t;
  db : Relalg.Database.t;
  exec : Exec.t;
  (* head tuple -> derivation count *)
  counts : (Relalg.Relation.tuple, int) Hashtbl.t;
  mutable delta_bindings : int;
}

let head_tuple (view : Query.t) resolve =
  Array.of_list
    (List.map
       (fun term ->
         match resolve term with
         | Some v -> v
         | None -> invalid_arg "View_maintenance: unsafe view")
       view.Query.head.Atom.args)

let resolve_with (b : Relalg.Value.t Smap.t) = function
  | Term.Const v -> Some v
  | Term.Var x -> Smap.find_opt x b

let bump counts tuple delta =
  let next = Option.value ~default:0 (Hashtbl.find_opt counts tuple) + delta in
  if next <= 0 then Hashtbl.remove counts tuple
  else Hashtbl.replace counts tuple next

let recompute_counts t =
  Hashtbl.reset t.counts;
  List.iter
    (fun b -> bump t.counts (head_tuple t.view (resolve_with b)) 1)
    (Eval.run_bindings t.db t.view)

let create ?(exec = Exec.default) db view =
  if not (Query.is_safe view) then
    invalid_arg "View_maintenance.create: unsafe view";
  let t = { view; db; exec; counts = Hashtbl.create 64; delta_bindings = 0 } in
  recompute_counts t;
  t

let query t = t.view
let tuples t = Hashtbl.fold (fun tuple _ acc -> tuple :: acc) t.counts []
let cardinality t = Hashtbl.length t.counts

(* Substitution grounding one body atom to a concrete tuple. *)
let ground_atom_subst (atom : Atom.t) tuple =
  if Atom.arity atom <> Array.length tuple then None
  else
    let rec go subst i = function
      | [] -> Some subst
      | term :: rest -> (
          match Subst.walk subst term with
          | Term.Const c ->
              if Relalg.Value.equal c tuple.(i) then go subst (i + 1) rest
              else None
          | Term.Var x ->
              go (Subst.bind subst x (Term.Const tuple.(i))) (i + 1) rest)
    in
    go Subst.empty 0 atom.Atom.args

(* All derivations that use [tuple] in relation [rel] at some body-atom
   occurrence, deduplicated across occurrences by the full variable
   assignment. Must be called while [tuple] is present in the db. *)
let derivations_using t rel tuple =
  let seen = Hashtbl.create 8 in
  let results = ref [] in
  List.iteri
    (fun i (atom : Atom.t) ->
      if String.equal atom.Atom.pred rel then
        match ground_atom_subst atom tuple with
        | None -> ()
        | Some subst ->
            let rest =
              List.filteri (fun j _ -> j <> i) t.view.Query.body
              |> List.map (Subst.apply_atom subst)
            in
            let sub_query = Query.make (Atom.make "~delta" []) rest in
            List.iter
              (fun b ->
                (* Re-attach the variables grounded by the tuple. *)
                let full =
                  List.fold_left
                    (fun acc (x, term) ->
                      match Subst.walk subst term with
                      | Term.Const v -> Smap.add x v acc
                      | Term.Var _ -> acc)
                    b (Subst.bindings subst)
                in
                let key = Smap.bindings full in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  results := full :: !results
                end)
              (Eval.run_bindings t.db sub_query))
    t.view.Query.body;
  !results

let mentions t rel =
  List.exists (fun (a : Atom.t) -> String.equal a.Atom.pred rel) t.view.Query.body

let maintain_insert t ~rel tuple =
  if mentions t rel then
    List.iter
      (fun b ->
        t.delta_bindings <- t.delta_bindings + 1;
        bump t.counts (head_tuple t.view (resolve_with b)) 1)
      (derivations_using t rel tuple)

let maintain_delete t ~rel tuple =
  if mentions t rel then
    List.iter
      (fun b ->
        t.delta_bindings <- t.delta_bindings + 1;
        bump t.counts (head_tuple t.view (resolve_with b)) (-1))
      (derivations_using t rel tuple)

let refresh t = recompute_counts t

let apply ?exec t (u : Updategram.t) =
  let exec = Option.value ~default:t.exec exec in
  if not exec.Exec.incremental then begin
    (* The --no-incremental baseline: mutate, then recompute the view
       from scratch.  Same final counts, none of the delta machinery. *)
    Updategram.apply ~exec t.db u;
    refresh t
  end
  else begin
    let rel = Relalg.Database.find t.db u.Updategram.rel in
    Obs.Trace.span exec.Exec.trace "view.maintain" @@ fun () ->
    (* Deletes: count derivations while the tuple is still present. *)
    List.iter
      (fun tuple ->
        if Relalg.Relation.mem rel tuple then begin
          maintain_delete t ~rel:u.Updategram.rel tuple;
          Relalg.Relation.apply rel (Relalg.Relation.Delta.remove tuple)
        end)
      u.Updategram.deletes;
    (* Inserts: add first, then count new derivations (all of them use
       the new tuple, which was absent before). *)
    List.iter
      (fun tuple ->
        if not (Relalg.Relation.mem rel tuple) then begin
          Relalg.Relation.apply rel (Relalg.Relation.Delta.add tuple);
          maintain_insert t ~rel:u.Updategram.rel tuple
        end)
      u.Updategram.inserts
  end

let delta_bindings_processed t = t.delta_bindings
