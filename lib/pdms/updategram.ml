type t = {
  rel : string;
  inserts : Relalg.Relation.tuple list;
  deletes : Relalg.Relation.tuple list;
}

let make ~rel ?(inserts = []) ?(deletes = []) () = { rel; inserts; deletes }

let tuple_equal a b =
  Array.length a = Array.length b && Array.for_all2 Relalg.Value.equal a b

let remove_one tuple list =
  let rec go acc = function
    | [] -> None
    | x :: rest ->
        if tuple_equal x tuple then Some (List.rev_append acc rest)
        else go (x :: acc) rest
  in
  go [] list

let m_applied = Obs.Metrics.counter "pdms.delta.applied"

(* The effective {!Relalg.Relation.Delta.t} this updategram denotes
   against the relation's current contents: deletes keep one removal per
   present tuple (stored relations are kept distinct), and inserts keep
   the tuples that will actually land under insert-distinct semantics
   once the deletes have gone through. *)
let effective_delta rel t =
  let dels =
    List.fold_left
      (fun acc tuple ->
        if
          Relalg.Relation.mem rel tuple
          && not (List.exists (tuple_equal tuple) acc)
        then tuple :: acc
        else acc)
      [] t.deletes
    |> List.rev
  in
  let adds =
    List.fold_left
      (fun acc tuple ->
        let present_after_dels =
          Relalg.Relation.mem rel tuple
          && not (List.exists (tuple_equal tuple) dels)
        in
        if present_after_dels || List.exists (tuple_equal tuple) acc then acc
        else tuple :: acc)
      [] t.inserts
    |> List.rev
  in
  Relalg.Relation.Delta.make ~adds ~dels ()

let apply ?(exec = Exec.default) ?tee db t =
  let rel = Relalg.Database.find db t.rel in
  Obs.Trace.span exec.Exec.trace "delta.apply" @@ fun () ->
  let d = effective_delta rel t in
  Obs.Trace.attr_s exec.Exec.trace "rel" t.rel;
  Obs.Trace.attr_i exec.Exec.trace "delta.size" (Relalg.Relation.Delta.size d);
  (* Write-ahead: the durability tee sees the effective delta before
     the in-memory state moves, so a crash between the two leaves the
     log ahead of (never behind) the store. *)
  (match tee with
  | Some f when not (Relalg.Relation.Delta.is_empty d) -> f ~rel:t.rel d
  | Some _ | None -> ());
  Relalg.Relation.apply rel d;
  if exec.Exec.metrics then Obs.Metrics.incr m_applied

let compose a b =
  if not (String.equal a.rel b.rel) then
    invalid_arg "Updategram.compose: different relations";
  (* b's deletes cancel a's pending inserts; survivors accumulate. *)
  let inserts, deletes =
    List.fold_left
      (fun (ins, dels) d ->
        match remove_one d ins with
        | Some ins' -> (ins', dels)
        | None -> (ins, dels @ [ d ]))
      (a.inserts, a.deletes) b.deletes
  in
  { rel = a.rel; inserts = inserts @ b.inserts; deletes }

let size t = List.length t.inserts + List.length t.deletes
let is_empty t = t.inserts = [] && t.deletes = []
