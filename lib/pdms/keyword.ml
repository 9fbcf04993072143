type hit = {
  peer : string;
  stored_rel : string;
  tuple : Relalg.Relation.tuple;
  score : float;
}

let m_searches = Obs.Metrics.counter "pdms.keyword.searches"
let m_scored = Obs.Metrics.counter "pdms.keyword.tuples_scored"
let m_memo_hits = Obs.Metrics.counter "pdms.keyword.memo_hits"
let m_memo_misses = Obs.Metrics.counter "pdms.keyword.memo_misses"
let m_hits_returned = Obs.Metrics.counter "pdms.keyword.hits_returned"
let m_relations_indexed = Obs.Metrics.counter "pdms.kwindex.relations_indexed"
let m_candidates = Obs.Metrics.counter "pdms.kwindex.candidates"
let m_skipped = Obs.Metrics.counter "pdms.kwindex.skipped_by_bound"

(* Candidate-driven ranking: gather postings for the query's tokens
   only, then rank relation by relation, skipping any relation whose
   score upper bound cannot beat the current k-th score. Relations are
   visited in database order and candidates in ascending tuple id, so
   insertions into the heap happen in the same order a scan scoring
   every live tuple would make them — tie-breaks included.  Once the
   heap is full, a candidate not above its floor is one [Topk.add]
   would reject (equal scores lose to the earlier insertion), so it
   builds no hit; the survivors keep their relative order. *)
let indexed ~jobs ~trace ~limit entries query_toks =
  let stamp, corpus = Kwindex.corpus entries in
  let query_vec = Util.Tfidf.vectorize corpus query_toks in
  let probes =
    Obs.Trace.span trace "kwindex.probe" @@ fun () ->
    Obs.Trace.attr_i trace "jobs" jobs;
    Util.Pool.map jobs
      (fun e -> Kwindex.probe e ~stamp corpus query_vec)
      entries
  in
  let candidates = ref 0 and skipped = ref 0 in
  let hits =
    Obs.Trace.span trace "rank" @@ fun () ->
    let top = Util.Topk.create limit in
    (* The heap's floor, [neg_infinity] until it is full; it moves only
       when an add lands, so it is read then, not per candidate. *)
    let floor = ref neg_infinity in
    List.iter
      (fun pr ->
        candidates := !candidates + Array.length pr.Kwindex.candidates;
        if pr.Kwindex.bound <= !floor then Stdlib.incr skipped
        else
          let e = pr.Kwindex.source in
          Array.iter
            (fun id ->
              let score = pr.Kwindex.scores.(id) in
              if score > 0.0 && score > !floor then begin
                Util.Topk.add top score
                  {
                    peer = e.Kwindex.peer;
                    stored_rel = e.Kwindex.rel_name;
                    tuple = e.Kwindex.tuples.(id);
                    score;
                  };
                match Util.Topk.min_score top with
                | Some f -> floor := f
                | None -> ()
              end)
            pr.Kwindex.candidates)
      probes;
    let hits = List.map snd (Util.Topk.to_list top) in
    Obs.Trace.attr_i trace "limit" limit;
    Obs.Trace.attr_i trace "hits" (List.length hits);
    Obs.Trace.attr_i trace "skipped_by_bound" !skipped;
    hits
  in
  (hits, !candidates, !skipped)

let search ?(limit = 10) ?(exec = Exec.default) ?network catalog keywords =
  let jobs = exec.Exec.jobs in
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "keyword.search" @@ fun () ->
  let db = Catalog.global_db catalog in
  (* Degraded search: relations owned by a downed peer are unreachable,
     so their postings are excluded at query time — the index entries
     themselves survive for when the peer heals. *)
  let reachable rel_name =
    match network with
    | None -> true
    | Some net -> (
        match Distributed.owner_of_pred rel_name with
        | Some owner -> not (Network.Fault.is_down net owner)
        | None -> true)
  in
  let built = ref 0 in
  let entries =
    Obs.Trace.span trace "kwindex.build" @@ fun () ->
    let entries =
      List.map
        (fun rel_name ->
          let e, fresh =
            Kwindex.get ~rel_name (Relalg.Database.find db rel_name)
          in
          if fresh then Stdlib.incr built;
          e)
        (List.filter reachable (Relalg.Database.names db))
    in
    Obs.Trace.attr_i trace "relations" (List.length entries);
    Obs.Trace.attr_i trace "built" !built;
    entries
  in
  let query_toks = List.map Util.Stemmer.stem (Util.Tokenize.words keywords) in
  let hits, candidates, skipped =
    indexed ~jobs ~trace ~limit entries query_toks
  in
  let n_entries = List.length entries in
  Obs.Metrics.incr m_searches;
  Obs.Metrics.add m_scored candidates;
  Obs.Metrics.add m_memo_hits (n_entries - !built);
  Obs.Metrics.add m_memo_misses !built;
  Obs.Metrics.add m_hits_returned (List.length hits);
  Obs.Metrics.add m_relations_indexed n_entries;
  Obs.Metrics.add m_candidates candidates;
  Obs.Metrics.add m_skipped skipped;
  hits

let render_hit hit =
  Printf.sprintf "%.3f %s (%s): %s" hit.score hit.stored_rel hit.peer
    (String.concat " | "
       (Array.to_list (Array.map Relalg.Value.to_string hit.tuple)))
