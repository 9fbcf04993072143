type result = {
  answers : Relalg.Relation.t;
  outcome : Reformulate.outcome;
}

let m_queries = Obs.Metrics.counter "pdms.answer.queries"
let m_answers = Obs.Metrics.counter "pdms.answer.answers"
let m_unions = Obs.Metrics.counter "pdms.eval.unions"
let m_tuples = Obs.Metrics.counter "pdms.eval.tuples"
let m_dedup_dropped = Obs.Metrics.counter "pdms.eval.dedup_dropped"
let m_tuples_per_rw = Obs.Metrics.histogram "pdms.eval.tuples_per_rewriting"

let eval_union ?(exec = Exec.default) db = function
  | [] -> invalid_arg "Answer.eval_union: empty union"
  | q0 :: _ as qs ->
      let trace = exec.Exec.trace in
      Obs.Trace.span trace "eval" @@ fun () ->
      (* One shared-prefix trie, walked once; the per-rewriting pre-dedup
         tuple counts are |run_bindings q| per query. *)
      let plan = Cq.Plan.build ~trace db qs in
      let out = Relalg.Relation.create (Cq.Eval.head_schema q0) in
      let per_rewriting = Cq.Plan.run_union_into ~trace out db plan in
      let tuples = List.fold_left ( + ) 0 per_rewriting in
      let answers = Relalg.Relation.cardinality out in
      Obs.Metrics.incr m_unions;
      Obs.Metrics.add m_tuples tuples;
      Obs.Metrics.add m_dedup_dropped (tuples - answers);
      List.iter
        (fun n -> Obs.Metrics.observe m_tuples_per_rw (float_of_int n))
        per_rewriting;
      Obs.Trace.attr_i trace "rewritings" (List.length qs);
      Obs.Trace.attr_i trace "tuples" tuples;
      Obs.Trace.attr_i trace "answers" answers;
      Obs.Trace.attr_i trace "dedup_dropped" (tuples - answers);
      out

let answer ?(exec = Exec.default) catalog q =
  let trace = exec.Exec.trace in
  Obs.Trace.span trace "answer" @@ fun () ->
  let outcome = Reformulate.reformulate ~exec catalog q in
  let answers =
    match outcome.Reformulate.rewritings with
    | [] -> Relalg.Relation.create (Cq.Eval.head_schema q)
    | rewritings -> eval_union ~exec (Catalog.global_db catalog) rewritings
  in
  Obs.Metrics.incr m_queries;
  Obs.Metrics.add m_answers (Relalg.Relation.cardinality answers);
  Obs.Trace.attr_i trace "rewritings"
    (List.length outcome.Reformulate.rewritings);
  Obs.Trace.attr_i trace "answers" (Relalg.Relation.cardinality answers);
  { answers; outcome }

let answers_list result =
  Relalg.Relation.tuples result.answers
  |> List.map (fun row -> Array.to_list (Array.map Relalg.Value.to_string row))
  |> List.sort (List.compare String.compare)

let reachable_peers catalog start =
  (* Adjacency as a hash multimap, visited as a hash set: linear in
     edges + reachable peers instead of quadratic list scans. *)
  let adjacency : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let add_edge a b =
    let existing = Option.value ~default:[] (Hashtbl.find_opt adjacency a) in
    Hashtbl.replace adjacency a (b :: existing)
  in
  List.iter
    (fun (_, m) ->
      let ps = Peer_mapping.peers_mentioned m in
      List.iter (fun a -> List.iter (fun b -> add_edge a b) ps) ps)
    (Catalog.mappings catalog);
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec bfs = function
    | [] -> ()
    | p :: rest ->
        if Hashtbl.mem visited p then bfs rest
        else begin
          Hashtbl.replace visited p ();
          let next = Option.value ~default:[] (Hashtbl.find_opt adjacency p) in
          bfs (next @ rest)
        end
  in
  bfs [ start ];
  Hashtbl.fold (fun p () acc -> p :: acc) visited []
  |> List.sort String.compare
