(* A body without repeats is returned as it is. *)
let remove_duplicate_atoms (q : Query.t) =
  let rec repeats = function
    | [] -> false
    | a :: rest -> List.exists (Atom.equal a) rest || repeats rest
  in
  if not (repeats q.Query.body) then q
  else
    let rec dedupe seen = function
      | [] -> List.rev seen
      | a :: rest ->
          if List.exists (Atom.equal a) seen then dedupe seen rest
          else dedupe (a :: seen) rest
    in
    { q with Query.body = dedupe [] q.Query.body }

(* Dropping an atom can only generalise the query, so the removal is
   legal iff the smaller query is still contained in the original. *)
let minimize q =
  let q = remove_duplicate_atoms q in
  let try_remove body atom =
    let smaller = { q with Query.body = List.filter (fun a -> a != atom) body } in
    if Query.is_safe smaller && Containment.contained_in smaller q then
      Some smaller.Query.body
    else None
  in
  let rec loop body =
    let rec scan = function
      | [] -> body
      | atom :: rest -> (
          match try_remove body atom with
          | Some smaller -> loop smaller
          | None -> scan rest)
    in
    scan body
  in
  { q with Query.body = loop q.Query.body }
