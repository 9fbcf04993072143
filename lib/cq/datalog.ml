type program = Query.t list

let ensure_idb db (r : Query.t) =
  let pred = r.Query.head.Atom.pred in
  let arity = Atom.arity r.Query.head in
  match Relalg.Database.find_opt db pred with
  | Some rel ->
      if Relalg.Schema.arity (Relalg.Relation.schema rel) <> arity then
        invalid_arg ("Datalog.eval: arity clash for " ^ pred)
  | None ->
      let attrs = List.init arity (Printf.sprintf "a%d") in
      ignore (Relalg.Database.create_relation db pred attrs)

let eval edb (program : program) =
  List.iter
    (fun (r : Query.t) ->
      if not (Query.is_safe r) then
        invalid_arg ("Datalog.eval: unsafe rule " ^ Query.to_string r))
    program;
  let db = Relalg.Database.copy edb in
  List.iter (ensure_idb db) program;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Query.t) ->
        let rel = Relalg.Database.find db r.Query.head.Atom.pred in
        let derived = Eval.run db r in
        Relalg.Relation.iter
          (fun row ->
            if not (Relalg.Relation.mem rel row) then begin
              Relalg.Relation.apply rel (Relalg.Relation.Delta.add row);
              changed := true
            end)
          derived)
      program
  done;
  db

let query edb program q = Eval.run (eval edb program) q
