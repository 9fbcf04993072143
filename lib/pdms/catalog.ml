type mapping_id = int

type t = {
  mutable peers : Peer.t list;
  mutable mappings : (mapping_id * Peer_mapping.t) list;
  mutable next_id : mapping_id;
  (* Reformulation artifacts, extended by each add with the new
     mapping's or description's own: GAV rules by head predicate, oldest
     mapping first; LAV views, storage descriptions newest first, then
     mapping views oldest first. Lookups only read them, so concurrent
     reformulations over one catalog never race. Beside them, the
     predicates some view's body reads, and whether every variable of
     every view occurs in its head. *)
  rules : (string, (mapping_id option * Cq.Query.t) list) Hashtbl.t;
  mutable views : (mapping_id option * Cq.Query.t) list;
  viewed : (string, unit) Hashtbl.t;
  mutable distinguished_views : bool;
  stored : (string, unit) Hashtbl.t;
}

let create () =
  {
    peers = [];
    mappings = [];
    next_id = 0;
    rules = Hashtbl.create 64;
    views = [];
    viewed = Hashtbl.create 64;
    distinguished_views = true;
    stored = Hashtbl.create 16;
  }

let mapping_pred id reversed =
  Printf.sprintf "~map%d%s" id (if reversed then "r" else "")

let retarget pred (q : Cq.Query.t) =
  { q with Cq.Query.head = { q.Cq.Query.head with Cq.Atom.pred = pred } }

(* One GAV rule + one LAV view per mapping direction. *)
let artifacts_of_mapping (id, mapping) =
  match mapping with
  | Peer_mapping.Definitional rule ->
      ([ (rule.Cq.Query.head.Cq.Atom.pred, (Some id, rule)) ], [])
  | Peer_mapping.Glav g ->
      let directions =
        match g.Rewrite.Glav.kind with
        | Rewrite.Glav.Inclusion -> [ (false, g) ]
        | Rewrite.Glav.Equality -> (
            [ (false, g) ]
            @
            match Rewrite.Glav.reversed g with
            | Some rg -> [ (true, rg) ]
            | None -> [])
      in
      let rules, views =
        List.fold_left
          (fun (rules, views) (rev, g) ->
            let pred = mapping_pred id rev in
            let rule = retarget pred g.Rewrite.Glav.lhs in
            let view = retarget pred g.Rewrite.Glav.rhs in
            ((pred, (Some id, rule)) :: rules, (Some id, view) :: views))
          ([], []) directions
      in
      (rules, views)

let add_peer t peer =
  if List.exists (fun p -> String.equal (Peer.name p) (Peer.name peer)) t.peers
  then invalid_arg ("Catalog.add_peer: duplicate peer " ^ Peer.name peer);
  t.peers <- peer :: t.peers;
  List.iter (fun pred -> Hashtbl.replace t.stored pred ()) (Peer.stored_preds peer)

let peer t name =
  match List.find_opt (fun p -> String.equal (Peer.name p) name) t.peers with
  | Some p -> p
  | None -> invalid_arg ("Catalog.peer: unknown peer " ^ name)

let peers t = List.rev t.peers

let note_view t (view : Cq.Query.t) =
  List.iter
    (fun (a : Cq.Atom.t) -> Hashtbl.replace t.viewed a.Cq.Atom.pred ())
    view.Cq.Query.body;
  if Cq.Query.existential_vars view <> [] then t.distinguished_views <- false

let add_storage t desc =
  Hashtbl.replace t.stored (Storage_desc.stored_pred desc) ();
  note_view t desc.Storage_desc.view;
  t.views <- (None, desc.Storage_desc.view) :: t.views

let store_identity t peer ~rel =
  let attrs = List.assoc rel (Peer.schema peer) in
  let relation =
    match Relalg.Database.find_opt (Peer.stored_db peer) (Peer.stored_pred peer rel) with
    | Some r -> r
    | None -> Peer.add_stored peer ~rel ~attrs
  in
  Hashtbl.replace t.stored (Peer.stored_pred peer rel) ();
  add_storage t (Storage_desc.identity peer ~rel);
  relation

let add_mapping t mapping =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.mappings <- (id, mapping) :: t.mappings;
  let rules, views = artifacts_of_mapping (id, mapping) in
  List.iter
    (fun (pred, rule) ->
      let known = Option.value ~default:[] (Hashtbl.find_opt t.rules pred) in
      Hashtbl.replace t.rules pred (known @ [ rule ]))
    rules;
  (* Mapping views go last; the append copies the list's spine only. *)
  List.iter (fun (_, view) -> note_view t view) views;
  t.views <- t.views @ views;
  id

let mappings t = List.rev t.mappings
let mapping_count t = List.length t.mappings

let is_stored t pred = Hashtbl.mem t.stored pred

let rules_for t pred = Option.value ~default:[] (Hashtbl.find_opt t.rules pred)
let has_rules t pred = Hashtbl.mem t.rules pred
let views t = t.views
let in_view_body t pred = Hashtbl.mem t.viewed pred
let distinguished_views t = t.distinguished_views

let global_db t =
  let db = Relalg.Database.create () in
  List.iter
    (fun peer ->
      List.iter
        (fun rel -> Relalg.Database.add_relation db rel)
        (Relalg.Database.relations (Peer.stored_db peer)))
    t.peers;
  db
