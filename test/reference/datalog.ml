type program = Cq.Query.t list

let ensure_idb db (r : Cq.Query.t) =
  let pred = r.Cq.Query.head.Cq.Atom.pred in
  let arity = Cq.Atom.arity r.Cq.Query.head in
  match Relalg.Database.find_opt db pred with
  | Some rel ->
      if Relalg.Schema.arity (Relalg.Relation.schema rel) <> arity then
        invalid_arg ("Datalog.eval: arity clash for " ^ pred)
  | None ->
      let attrs = List.init arity (Printf.sprintf "a%d") in
      ignore (Relalg.Database.create_relation db pred attrs)

let eval edb (program : program) =
  List.iter
    (fun (r : Cq.Query.t) ->
      if not (Cq.Query.is_safe r) then
        invalid_arg ("Datalog.eval: unsafe rule " ^ Cq.Query.to_string r))
    program;
  let db = Relalg.Database.copy edb in
  List.iter (ensure_idb db) program;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Cq.Query.t) ->
        let rel = Relalg.Database.find db r.Cq.Query.head.Cq.Atom.pred in
        (* Every assignment is found before any derived row lands. *)
        List.iter
          (fun b -> if Nested_loop.add rel (Nested_loop.head r b) then changed := true)
          (Nested_loop.assignments db r))
      program
  done;
  db

let query edb program q = Nested_loop.run (eval edb program) q
