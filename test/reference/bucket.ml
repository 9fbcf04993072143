open Cq
open Rewrite

type stats = {
  bucket_sizes : int list;
  candidates_tried : int;
  candidates_valid : int;
  truncated : bool;
}

type entry = { view : Query.t; state : Cover.state }

(* A view enters subgoal [g]'s bucket when some view body atom matches
   [g] and every distinguished query variable of [g] maps to a
   distinguished view variable or a constant. Unlike MiniCon, no
   closure over existential variables is performed — that laxity is
   exactly what the validation step later pays for. *)
let bucket_for (q : Query.t) views (g : Atom.t) =
  let head_vars = Query.head_vars q in
  List.concat_map
    (fun view ->
      List.filter_map
        (fun b ->
          match Cover.match_subgoal ~view Cover.empty g b with
          | None -> None
          | Some st ->
              let ok =
                List.for_all
                  (fun x ->
                    (not (List.mem x head_vars))
                    || not (Cover.maps_to_existential ~view st x))
                  (Atom.vars g)
              in
              if ok then Some { view; state = st } else None)
        view.Query.body)
    views

let rewrite ?(max_candidates = 200_000) ~views (q : Query.t) =
  let views = Cover.prepare_views ~query:q views in
  let body = Array.of_list q.Query.body in
  let n = Array.length body in
  let buckets = Array.init n (fun i -> bucket_for q views body.(i)) in
  let bucket_sizes = Array.to_list (Array.map List.length buckets) in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "~f%d" !counter
  in
  let tried = ref 0 in
  let truncated = ref false in
  let results = ref [] in
  (* Depth-first cartesian product over the buckets. *)
  let rec product i chosen =
    if !tried >= max_candidates then truncated := true
    else if i = n then begin
      incr tried;
      let pieces =
        List.rev
          (List.mapi
             (fun k e ->
               Build.piece ~view:e.view ~state:e.state
                 ~covered:[ n - 1 - k ] ~query:q)
             chosen)
      in
      match Build.assemble ~fresh q pieces with
      | None -> ()
      | Some candidate ->
          if Expansion.is_contained_rewriting ~views candidate q then
            results := Minimize.remove_duplicate_atoms candidate :: !results
    end
    else List.iter (fun e -> product (i + 1) (e :: chosen)) buckets.(i)
  in
  if n > 0 && Array.for_all (fun b -> b <> []) buckets then product 0 [];
  let normalize (r : Query.t) =
    { r with Query.body = List.sort Atom.compare r.Query.body }
  in
  let deduped =
    List.fold_left
      (fun acc r ->
        let nr = normalize r in
        if List.exists (fun r' -> Query.equal (normalize r') nr) acc then acc
        else r :: acc)
      [] !results
    |> List.rev
  in
  ( deduped,
    {
      bucket_sizes;
      candidates_tried = !tried;
      candidates_valid = List.length deduped;
      truncated = !truncated;
    } )
