type correspondence = { src : string * string; dst : string }

type scores = {
  precision : float;
  recall : float;
  f1 : float;
  accuracy : float;
}

let score ~predicted ~truth =
  let correct =
    List.length
      (List.filter
         (fun p ->
           List.exists (fun t -> p.src = t.src && String.equal p.dst t.dst) truth)
         predicted)
  in
  let np = List.length predicted and nt = List.length truth in
  let precision = if np = 0 then 0.0 else float_of_int correct /. float_of_int np in
  let recall = if nt = 0 then 0.0 else float_of_int correct /. float_of_int nt in
  let f1 =
    if precision +. recall <= 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  (* LSD accuracy: among ground-truth columns, how many got the right
     label (an unassigned or wrongly assigned column counts against). *)
  { precision; recall; f1; accuracy = recall }

let of_assignment assignment =
  List.filter_map
    (fun (col, label) ->
      Option.map (fun dst -> { src = Column.key col; dst }) label)
    assignment
