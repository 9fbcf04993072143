type t = {
  rel : string;
  inserts : Relalg.Relation.tuple list;
  deletes : Relalg.Relation.tuple list;
}

let make ~rel ?(inserts = []) ?(deletes = []) () = { rel; inserts; deletes }

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
          && not (List.exists (Relalg.Relation.tuple_equal tuple) acc)
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
          && not (List.exists (Relalg.Relation.tuple_equal tuple) dels)
        in
        if
          present_after_dels
          || List.exists (Relalg.Relation.tuple_equal tuple) acc
        then acc
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
  Obs.Metrics.incr m_applied

let compose a b =
  if not (String.equal a.rel b.rel) then
    invalid_arg "Updategram.compose: different relations";
  (* b's deletes cancel a's pending inserts; survivors accumulate. *)
  let delta t = Relalg.Relation.Delta.make ~adds:t.inserts ~dels:t.deletes () in
  let d = Relalg.Relation.Delta.compose (delta a) (delta b) in
  {
    rel = a.rel;
    inserts = Relalg.Relation.Delta.adds d;
    deletes = Relalg.Relation.Delta.dels d;
  }

let size t = List.length t.inserts + List.length t.deletes
let is_empty t = t.inserts = [] && t.deletes = []
