type t = {
  store : Storage.Triple_store.t;
  mutable clock : int;
  mutable listeners : (unit -> unit) list;
}

let create () = { store = Storage.Triple_store.create (); clock = 0; listeners = [] }

let store t = t.store

(* Reserved predicates: an entity's instance tag, and the text of its
   instance annotation. *)
let type_pred = "mangrove:type"
let label_pred = "mangrove:label"

let on_publish t f = t.listeners <- f :: t.listeners
let clock t = t.clock

let publish ?author t annotator =
  let doc = Annotator.document annotator in
  let url = doc.Html.url in
  ignore (Storage.Triple_store.remove_source t.store url);
  t.clock <- t.clock + 1;
  let prov = Storage.Provenance.make ?author ~source_url:url ~timestamp:t.clock () in
  let count = ref 0 in
  let add ~subj ~pred ~obj =
    Storage.Triple_store.add t.store ~subj ~pred ~obj ~prov;
    incr count
  in
  List.iteri
    (fun idx ((inst : Annotation.t), fields) ->
      let subj = Printf.sprintf "%s#%s%d" url inst.Annotation.tag idx in
      add ~subj ~pred:type_pred ~obj:(Relalg.Value.Str inst.Annotation.tag);
      if not (String.equal inst.Annotation.value "") then
        add ~subj ~pred:label_pred ~obj:(Relalg.Value.Str inst.Annotation.value);
      List.iter
        (fun (f : Annotation.t) ->
          add ~subj ~pred:f.Annotation.tag
            ~obj:(Relalg.Value.of_string f.Annotation.value))
        fields)
    (Annotator.grouped annotator);
  List.iter (fun f -> f ()) t.listeners;
  !count

let retract t url =
  let n = Storage.Triple_store.remove_source t.store url in
  if n > 0 then List.iter (fun f -> f ()) t.listeners;
  n

let entities t ~tag =
  Storage.Triple_store.select ~pred:type_pred ~obj:(Relalg.Value.Str tag) t.store
  |> List.map (fun tr -> tr.Storage.Triple_store.subj)
  |> List.sort_uniq String.compare

let field_values t ~subject ~field =
  Storage.Triple_store.select ~subj:subject ~pred:field t.store
  |> List.map (fun tr -> (tr.Storage.Triple_store.obj, tr.Storage.Triple_store.prov))

let field_value t ~subject ~field =
  match field_values t ~subject ~field with
  | (v, _) :: _ -> Some v
  | [] -> None
