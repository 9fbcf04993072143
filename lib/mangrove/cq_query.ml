let ( let* ) = Result.bind

let patterns ~tags (q : Cq.Query.t) =
  let counter = ref 0 in
  let fresh_subject () =
    incr counter;
    Cq.Term.Var (Printf.sprintf "~subj%d" !counter)
  in
  List.fold_left
    (fun acc (atom : Cq.Atom.t) ->
      let* acc = acc in
      match List.assoc_opt atom.Cq.Atom.pred tags with
      | None -> Error ("unknown instance tag " ^ atom.Cq.Atom.pred)
      | Some fields ->
          if List.length fields <> Cq.Atom.arity atom then
            Error
              (Printf.sprintf "%s expects %d fields, got %d" atom.Cq.Atom.pred
                 (List.length fields) (Cq.Atom.arity atom))
          else
            let subject = fresh_subject () in
            let type_pattern =
              Storage.Triple_store.pat subject
                (Cq.Term.str Repository.type_pred)
                (Cq.Term.str atom.Cq.Atom.pred)
            in
            let field_patterns =
              List.map2
                (fun field term ->
                  Storage.Triple_store.pat subject (Cq.Term.str field) term)
                fields atom.Cq.Atom.args
            in
            Ok (acc @ (type_pattern :: field_patterns)))
    (Ok []) q.Cq.Query.body

let run ~tags repo (q : Cq.Query.t) =
  if not (Cq.Query.is_safe q) then Error "unsafe query"
  else
    let* pats = patterns ~tags q in
    let bindings = Repository.query repo pats in
    let head_vars = Cq.Query.head_vars q in
    let schema =
      Relalg.Schema.make q.Cq.Query.head.Cq.Atom.pred head_vars
    in
    let out = Relalg.Relation.create schema in
    List.iter
      (fun binding ->
        let row =
          List.map
            (fun x ->
              Option.value ~default:Relalg.Value.Null
                (Cq.Eval.Smap.find_opt x binding))
            head_vars
        in
        ignore (Relalg.Relation.add_distinct out (Array.of_list row) : bool))
      bindings;
    Ok out

let run_exn ~tags repo q =
  match run ~tags repo q with
  | Ok rel -> rel
  | Error msg -> invalid_arg ("Cq_query.run_exn: " ^ msg)

let department_tags =
  List.map
    (fun tag -> (tag, Lightweight_schema.fields_of Lightweight_schema.department tag))
    (Lightweight_schema.instance_tags Lightweight_schema.department)
