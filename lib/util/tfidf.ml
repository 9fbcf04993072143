module Smap = Map.Make (String)

type corpus = { df : float Smap.t; n : int }
type vector = (string * float) list

let build docs =
  let df =
    List.fold_left
      (fun acc doc ->
        let distinct = List.sort_uniq String.compare doc in
        List.fold_left
          (fun acc tok ->
            Smap.update tok
              (function None -> Some 1.0 | Some c -> Some (c +. 1.0))
              acc)
          acc distinct)
      Smap.empty docs
  in
  { df; n = List.length docs }

let replace_counts c ~n counts =
  let df =
    List.fold_left
      (fun acc (tok, k) ->
        if k = 0 then Smap.remove tok acc
        else Smap.add tok (float_of_int k) acc)
      c.df counts
  in
  { df; n }

let of_counts ~n counts = replace_counts { df = Smap.empty; n } ~n counts
let num_docs c = c.n

let idf c tok =
  let df = Option.value ~default:0.0 (Smap.find_opt tok c.df) in
  log ((float_of_int c.n +. 1.0) /. (df +. 1.0)) +. 1.0

let vectorize c doc =
  let tf =
    List.fold_left
      (fun acc tok ->
        Smap.update tok
          (function None -> Some 1.0 | Some x -> Some (x +. 1.0))
          acc)
      Smap.empty doc
  in
  let weighted = Smap.mapi (fun tok f -> f *. idf c tok) tf in
  let norm =
    sqrt (Smap.fold (fun _ w acc -> acc +. (w *. w)) weighted 0.0)
  in
  let weighted = if norm > 0.0 then Smap.map (fun w -> w /. norm) weighted else weighted in
  Smap.bindings weighted

(* Vectors produced by [vectorize] come from [Smap.bindings] and are
   strictly sorted by token, so the dot product is a linear two-pointer
   merge. Callers outside this module also feed count-ordered vectors
   (e.g. Counter.items output), for which we keep the map-based path:
   the merge is only valid when both sides are strictly ascending. *)
let rec strictly_sorted = function
  | [] | [ _ ] -> true
  | (ka, _) :: ((kb, _) :: _ as rest) ->
      String.compare ka kb < 0 && strictly_sorted rest

let cosine_merge va vb =
  let rec go acc va vb =
    match (va, vb) with
    | [], _ | _, [] -> acc
    | (ka, wa) :: ra, (kb, wb) :: rb -> (
        match String.compare ka kb with
        | 0 -> go (acc +. (wa *. wb)) ra rb
        | c when c < 0 -> go acc ra vb
        | _ -> go acc va rb)
  in
  go 0.0 va vb

let cosine_map va vb =
  let mb = List.fold_left (fun acc (k, v) -> Smap.add k v acc) Smap.empty vb in
  List.fold_left
    (fun acc (k, v) ->
      match Smap.find_opt k mb with None -> acc | Some w -> acc +. (v *. w))
    0.0 va

let cosine va vb =
  if strictly_sorted va && strictly_sorted vb then cosine_merge va vb
  else cosine_map va vb

let similarity c da db = cosine (vectorize c da) (vectorize c db)
