type t = {
  name : string;
  schema : (string * string list) list;
  attrs : (string, string list) Hashtbl.t;  (* the schema by relation *)
  stored : Relalg.Database.t;
}

let create ~name ~schema =
  let attrs = Hashtbl.create (List.length schema) in
  List.iter
    (fun (rel, rel_attrs) ->
      if Hashtbl.mem attrs rel then
        invalid_arg ("Peer.create: duplicate relation in schema of " ^ name);
      Hashtbl.replace attrs rel rel_attrs)
    schema;
  { name; schema; attrs; stored = Relalg.Database.create () }

let name t = t.name
let schema t = t.schema
let attrs t rel = Hashtbl.find_opt t.attrs rel
let stored_db t = t.stored

let pred t rel =
  if not (Hashtbl.mem t.attrs rel) then
    invalid_arg (Printf.sprintf "Peer.pred: %s has no relation %s" t.name rel);
  t.name ^ "." ^ rel

let atom t rel args =
  let attrs = Hashtbl.find t.attrs rel in
  if List.length args <> List.length attrs then
    invalid_arg
      (Printf.sprintf "Peer.atom: %s.%s expects %d args, got %d" t.name rel
         (List.length attrs) (List.length args));
  Cq.Atom.make (pred t rel) args

let stored_pred t rel = t.name ^ "." ^ rel ^ "!"

let add_stored t ~rel ~attrs =
  Relalg.Database.create_relation t.stored (stored_pred t rel) attrs

let stored_atom t rel args =
  let p = stored_pred t rel in
  (match Relalg.Database.find_opt t.stored p with
  | None -> invalid_arg ("Peer.stored_atom: no stored relation " ^ p)
  | Some r ->
      if Relalg.Schema.arity (Relalg.Relation.schema r) <> List.length args then
        invalid_arg ("Peer.stored_atom: arity mismatch for " ^ p));
  Cq.Atom.make p args

let stored_preds t = Relalg.Database.names t.stored
