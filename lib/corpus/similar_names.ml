let normalize_vec vec =
  let norm = sqrt (List.fold_left (fun acc (_, w) -> acc +. (w *. w)) 0.0 vec) in
  if norm > 0.0 then List.map (fun (k, w) -> (k, w /. norm)) vec else vec

let strip term vec = List.filter (fun (k, _) -> not (String.equal k term)) vec

let similarity stats a b =
  let na = Basic_stats.normalize stats a and nb = Basic_stats.normalize stats b in
  if String.equal na nb then 1.0
  else
    let va = normalize_vec (strip nb (Basic_stats.cooccurring_attrs stats na)) in
    let vb = normalize_vec (strip na (Basic_stats.cooccurring_attrs stats nb)) in
    Util.Tfidf.cosine va vb

let most_similar ?(limit = 10) stats term =
  let nt = Basic_stats.normalize stats term in
  Basic_stats.known_terms stats
  |> List.filter (fun other -> not (String.equal other nt))
  |> List.filter_map (fun other ->
         let s = similarity stats nt other in
         if s > 0.0 then Some (other, s) else None)
  |> List.sort (fun (a, s1) (b, s2) ->
         match Float.compare s2 s1 with 0 -> String.compare a b | c -> c)
  |> List.filteri (fun i _ -> i < limit)
