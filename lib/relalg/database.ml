type t = (string, Relation.t) Hashtbl.t

let create () : t = Hashtbl.create 16

let add_relation t rel =
  let name = Schema.name (Relation.schema rel) in
  if Hashtbl.mem t name then
    invalid_arg ("Database.add_relation: duplicate relation " ^ name);
  Hashtbl.replace t name rel

let create_relation t name attrs =
  let rel = Relation.create (Schema.make name attrs) in
  add_relation t rel;
  rel

let find t name =
  match Hashtbl.find_opt t name with
  | Some rel -> rel
  | None -> raise Not_found

let find_opt t name = Hashtbl.find_opt t name
let mem t name = Hashtbl.mem t name

let relations t = Hashtbl.fold (fun _ rel acc -> rel :: acc) t []

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t [] |> List.sort String.compare

let total_tuples t =
  Hashtbl.fold (fun _ rel acc -> acc + Relation.cardinality rel) t 0

let copy t =
  let out = create () in
  Hashtbl.iter (fun _ rel -> add_relation out (Relation.copy rel)) t;
  out

let pp fmt t =
  List.iter (fun name -> Format.fprintf fmt "%a@\n" Relation.pp (find t name)) (names t)
