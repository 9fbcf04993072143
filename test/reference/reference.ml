let per_rewriting_union db = function
  | [] -> invalid_arg "Reference.per_rewriting_union: empty union"
  | q0 :: _ as qs ->
      let out = Relalg.Relation.create (Cq.Eval.head_schema q0) in
      List.iter (fun q -> ignore (Cq.Eval.run_union_into out db [ q ])) qs;
      out

(* Every live slot of [entries] as a document, relation by relation in
   ascending slot order.  Dead (tombstoned) slots belong to deleted
   tuples and contribute neither documents nor df.  Tokenisation comes
   from the shared Kwindex entries, so a comparison with Keyword.search
   measures indexing proper, not tokenisation caching. *)
let live_docs entries =
  List.concat_map
    (fun e ->
      let acc = ref [] in
      for id = e.Pdms.Kwindex.n_slots - 1 downto 0 do
        if e.Pdms.Kwindex.live.(id) then begin
          let toks =
            Pdms.Kwindex.slot_tokens e id
            |> List.concat_map (fun (tok, tf) ->
                   List.init (int_of_float tf) (fun _ -> tok))
          in
          acc := (e, id, toks) :: !acc
        end
      done;
      !acc)
    entries

(* The corpus rebuilt from [docs] and the query vectorized against it. *)
let scan_corpus docs query_toks =
  let corpus = Util.Tfidf.build (List.map (fun (_, _, toks) -> toks) docs) in
  (corpus, Util.Tfidf.vectorize corpus query_toks)

let scan_score corpus query_vec toks =
  Util.Tfidf.cosine query_vec (Util.Tfidf.vectorize corpus toks)

let keyword_slot_scores entries query_toks =
  let docs = live_docs entries in
  let corpus, query_vec = scan_corpus docs query_toks in
  List.map (fun (e, id, toks) -> (e, id, scan_score corpus query_vec toks)) docs

(* Rebuild the corpus and re-vectorize every live tuple per call. *)
let brute ~jobs ~trace ~limit entries query_toks =
  let docs = live_docs entries in
  let corpus, query_vec = scan_corpus docs query_toks in
  (* Scoring is pure, so it shards across domains; chunks are contiguous
     and re-concatenated in order, keeping the ranking (tie-breaks
     included) identical to the sequential pass. *)
  let scored =
    Obs.Trace.span trace "score" @@ fun () ->
    Obs.Trace.attr_i trace "jobs" jobs;
    Util.Pool.chunk (max 1 jobs) docs
    |> Util.Pool.map jobs
         (List.map (fun (e, id, toks) ->
              let score = scan_score corpus query_vec toks in
              ( score,
                {
                  Pdms.Keyword.peer = e.Pdms.Kwindex.peer;
                  stored_rel = e.Pdms.Kwindex.rel_name;
                  tuple = e.Pdms.Kwindex.tuples.(id);
                  score;
                } )))
    |> List.concat
  in
  Obs.Trace.span trace "rank" @@ fun () ->
  let top = Util.Topk.create limit in
  List.iter
    (fun (score, hit) -> if score > 0.0 then Util.Topk.add top score hit)
    scored;
  let hits = List.map snd (Util.Topk.to_list top) in
  Obs.Trace.attr_i trace "limit" limit;
  Obs.Trace.attr_i trace "hits" (List.length hits);
  hits

let keyword_search ?(limit = 10) ?(exec = Pdms.Exec.default) ?network catalog
    keywords =
  let db = Pdms.Catalog.global_db catalog in
  (* The same reachable relations, in the same order, as
     Keyword.search ranks. *)
  let reachable rel_name =
    match network with
    | None -> true
    | Some net -> (
        match Pdms.Distributed.owner_of_pred rel_name with
        | Some owner -> not (Pdms.Network.Fault.is_down net owner)
        | None -> true)
  in
  let entries =
    List.filter reachable (Relalg.Database.names db)
    |> List.map (fun rel_name ->
           fst
             (Pdms.Kwindex.get ~rel_name (Relalg.Database.find db rel_name)))
  in
  let query_toks = List.map Util.Stemmer.stem (Util.Tokenize.words keywords) in
  brute ~jobs:exec.Pdms.Exec.jobs ~trace:exec.Pdms.Exec.trace ~limit entries
    query_toks

let stats_scan rel =
  let arity = Relalg.Schema.arity (Relalg.Relation.schema rel) in
  let seen = Array.init arity (fun _ -> Hashtbl.create 64) in
  Relalg.Relation.iter
    (fun row -> Array.iteri (fun i v -> Hashtbl.replace seen.(i) v ()) row)
    rel;
  {
    Relalg.Stats.cardinality = Relalg.Relation.cardinality rel;
    distinct = Array.map Hashtbl.length seen;
  }
