type t = { name : string; parents : (string * string option) list }

let make ~name pairs =
  let tags = List.map fst pairs in
  if List.length (List.sort_uniq String.compare tags) <> List.length tags then
    invalid_arg "Lightweight_schema.make: duplicate tag";
  List.iter
    (fun (tag, parent) ->
      match parent with
      | None -> ()
      | Some p ->
          if not (List.mem p tags) then
            invalid_arg ("Lightweight_schema.make: unknown parent " ^ p);
          if String.equal p tag then
            invalid_arg ("Lightweight_schema.make: self-parent " ^ tag))
    pairs;
  (* Cycle check: walking up from any tag must terminate. *)
  let rec depth seen tag =
    if List.mem tag seen then
      invalid_arg "Lightweight_schema.make: cyclic nesting"
    else
      match List.assoc tag pairs with
      | None -> ()
      | Some p -> depth (tag :: seen) p
  in
  List.iter (fun (tag, _) -> depth [] tag) pairs;
  { name; parents = pairs }

let name t = t.name
let tags t = List.map fst t.parents

let instance_tags t =
  List.filter_map
    (fun (tag, parent) -> match parent with None -> Some tag | Some _ -> None)
    t.parents

let parent_of t tag = Option.join (List.assoc_opt tag t.parents)
let mem t tag = List.mem_assoc tag t.parents

let allowed_under t ~child ~parent =
  match List.assoc_opt child t.parents with
  | None -> false
  | Some declared -> (
      match (declared, parent) with
      | None, None -> true
      | Some p, Some q -> String.equal p q
      | None, Some _ | Some _, None -> false)

let tag_path t tag =
  let rec go acc tag =
    match parent_of t tag with None -> tag :: acc | Some p -> go (tag :: acc) p
  in
  go [] tag

let department =
  make ~name:"department"
    [ ("person", None); ("name", Some "person"); ("phone", Some "person");
      ("email", Some "person"); ("office", Some "person");
      ("homepage", Some "person");
      ("course", None); ("code", Some "course"); ("title", Some "course");
      ("instructor", Some "course"); ("room", Some "course");
      ("time", Some "course"); ("day", Some "course");
      ("quarter", Some "course"); ("enrollment", Some "course");
      ("textbook", Some "course"); ("ta", Some "course");
      ("talk", None); ("speaker", Some "talk"); ("topic", Some "talk");
      ("venue", Some "talk"); ("when", Some "talk");
      ("publication", None); ("author", Some "publication");
      ("paper_title", Some "publication"); ("forum", Some "publication");
      ("year", Some "publication") ]
