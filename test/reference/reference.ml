module Bucket = Bucket
module Expansion = Expansion

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
let brute ~trace ~limit entries query_toks =
  let docs = live_docs entries in
  let corpus, query_vec = scan_corpus docs query_toks in
  let scored =
    Obs.Trace.span trace "score" @@ fun () ->
    List.map
      (fun (e, id, toks) ->
        let score = scan_score corpus query_vec toks in
        ( score,
          {
            Pdms.Keyword.peer = e.Pdms.Kwindex.peer;
            stored_rel = e.Pdms.Kwindex.rel_name;
            tuple = e.Pdms.Kwindex.tuples.(id);
            score;
          } ))
      docs
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

(* The reachable relations' entries, in the order Keyword.search ranks
   them. *)
let reachable_entries ?network catalog =
  let db = Pdms.Catalog.global_db catalog in
  let reachable rel_name =
    match network with
    | None -> true
    | Some net -> (
        match Pdms.Distributed.owner_of_pred rel_name with
        | Some owner -> not (Pdms.Network.Fault.is_down net owner)
        | None -> true)
  in
  List.filter reachable (Relalg.Database.names db)
  |> List.map (fun rel_name ->
         fst (Pdms.Kwindex.get ~rel_name (Relalg.Database.find db rel_name)))

let query_tokens keywords =
  List.map Util.Stemmer.stem (Util.Tokenize.words keywords)

let keyword_search ?(limit = 10) ?(exec = Pdms.Exec.default) ?network catalog
    keywords =
  brute ~trace:exec.Pdms.Exec.trace ~limit
    (reachable_entries ?network catalog)
    (query_tokens keywords)

(* Probe every entry into its own score array, then rank them in order:
   a relation whose bound is not above the full heap's floor is skipped
   (its candidates still counted), and a candidate not above the floor
   builds no hit. *)
let keyword_probe_every ?(limit = 10) ?network catalog keywords =
  let entries = reachable_entries ?network catalog in
  let stamp, corpus = Pdms.Kwindex.corpus entries in
  let query_vec = Util.Tfidf.vectorize corpus (query_tokens keywords) in
  let probes =
    List.map (fun e -> Pdms.Kwindex.probe e ~stamp corpus query_vec) entries
  in
  let candidates = ref 0 and skipped = ref 0 in
  let top = Util.Topk.create limit in
  let floor = ref neg_infinity in
  List.iter
    (fun (pr : Pdms.Kwindex.probe) ->
      candidates := !candidates + Array.length pr.candidates;
      if pr.bound <= !floor then incr skipped
      else
        Array.iter
          (fun id ->
            let score = pr.scores.(id) in
            if score > 0.0 && score > !floor then begin
              Util.Topk.add top score
                {
                  Pdms.Keyword.peer = pr.source.Pdms.Kwindex.peer;
                  stored_rel = pr.source.Pdms.Kwindex.rel_name;
                  tuple = pr.source.Pdms.Kwindex.tuples.(id);
                  score;
                };
              match Util.Topk.min_score top with
              | Some f -> floor := f
              | None -> ()
            end)
          pr.candidates)
    probes;
  (List.map snd (Util.Topk.to_list top), !candidates, !skipped)

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

let add_value_key buf = function
  | Relalg.Value.Null -> Buffer.add_char buf 'n'
  | Relalg.Value.Bool b -> Buffer.add_string buf (if b then "bt" else "bf")
  | Relalg.Value.Int i ->
      Buffer.add_char buf 'i';
      Buffer.add_string buf (string_of_int i)
  | Relalg.Value.Float f -> Printf.bprintf buf "f%h" f
  | Relalg.Value.Str s ->
      Printf.bprintf buf "s%d:" (String.length s);
      Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Restart readers written the straightforward way: every conversion
   tried in turn, fields cut into substrings, rows removed from a
   list. *)

let value_of_string s =
  match int_of_string_opt s with
  | Some i -> Relalg.Value.Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Relalg.Value.Float f
      | None -> (
          match bool_of_string_opt s with
          | Some b -> Relalg.Value.Bool b
          | None -> Relalg.Value.Str s))

let parse_value v =
  let n = String.length v in
  if n >= 2 && v.[0] = '\'' && v.[n - 1] = '\'' then begin
    let inner = String.sub v 1 (n - 2) in
    let m = String.length inner in
    let b = Buffer.create m in
    let i = ref 0 in
    while !i < m do
      let next = if !i + 1 < m then inner.[!i + 1] else '\000' in
      match (inner.[!i], next) with
      | ('\'' as c), '\'' | ('\\' as c), '\\' ->
          Buffer.add_char b c;
          i := !i + 2
      | '\\', 'n' ->
          Buffer.add_char b '\n';
          i := !i + 2
      | '\\', 'r' ->
          Buffer.add_char b '\r';
          i := !i + 2
      | c, _ ->
          Buffer.add_char b c;
          incr i
    done;
    Relalg.Value.Str (Buffer.contents b)
  end
  else value_of_string v

let split_row s =
  let n = String.length s in
  let fields = ref [] in
  let i = ref 0 in
  while !i <= n do
    let start = !i in
    let j = ref start in
    while !j < n && (s.[!j] = ' ' || s.[!j] = '\t') do incr j done;
    if !j < n && s.[!j] = '\'' then begin
      incr j;
      let closed = ref false in
      while (not !closed) && !j < n do
        if s.[!j] = '\'' then
          if !j + 1 < n && s.[!j + 1] = '\'' then j := !j + 2
          else begin
            closed := true;
            incr j
          end
        else incr j
      done
    end;
    while !j < n && s.[!j] <> '|' do incr j done;
    fields := String.sub s start (!j - start) :: !fields;
    i := !j + 1
  done;
  List.rev !fields

let parse_row s = split_row s |> List.map String.trim |> List.map parse_value

let apply_model rows d =
  let rec remove_first row acc = function
    | [] -> List.rev acc
    | x :: rest ->
        if Relalg.Relation.tuple_equal x row then List.rev_append acc rest
        else remove_first row (x :: acc) rest
  in
  List.fold_left
    (fun rows del -> remove_first del [] rows)
    rows
    (Relalg.Relation.Delta.dels d)
  @ Relalg.Relation.Delta.adds d
