type t = {
  name : string;
  repository : Mangrove.Repository.t;
  schema : Mangrove.Lightweight_schema.t;
  peer : Pdms.Peer.t;
}

let create ~name ?(schema = Mangrove.Lightweight_schema.department) ~peer_schema
    () =
  {
    name;
    repository = Mangrove.Repository.create ();
    schema;
    peer = Pdms.Peer.create ~name ~schema:peer_schema;
  }

let name t = t.name
let repository t = t.repository
let peer t = t.peer

let annotator t doc = Mangrove.Annotator.start ~schema:t.schema doc
let publish t annotator = Mangrove.Repository.publish t.repository annotator

let sync t ~catalog ~rel ~tag ~fields =
  let stored = Pdms.Catalog.store_identity catalog t.peer ~rel in
  let inserted = ref 0 in
  List.iter
    (fun subject ->
      let tuple =
        Array.of_list
          (List.map
             (fun field ->
               match
                 Mangrove.Repository.field_value t.repository ~subject ~field
               with
               | Some v -> v
               | None -> Relalg.Value.Null)
             fields)
      in
      if Relalg.Relation.add_distinct stored tuple then incr inserted)
    (Mangrove.Repository.entities t.repository ~tag);
  !inserted

let schema_model_of_peer peer ~rel =
  let attrs =
    match List.assoc_opt rel (Pdms.Peer.schema peer) with
    | Some attrs -> attrs
    | None ->
        invalid_arg
          (Printf.sprintf "Revere.schema_model_of_peer: %s has no relation %s"
             (Pdms.Peer.name peer) rel)
  in
  let stored_tuples =
    match
      Relalg.Database.find_opt (Pdms.Peer.stored_db peer)
        (Pdms.Peer.stored_pred peer rel)
    with
    | Some r -> Relalg.Relation.tuples r
    | None -> []
  in
  let attributes =
    List.mapi
      (fun i attr ->
        let values =
          List.filteri (fun j _ -> j < 30) stored_tuples
          |> List.map (fun row -> Relalg.Value.to_string row.(i))
        in
        Corpus.Schema_model.attribute ~values attr)
      attrs
  in
  Corpus.Schema_model.make
    ~name:(Pdms.Peer.name peer)
    [ Corpus.Schema_model.relation rel attributes ]
