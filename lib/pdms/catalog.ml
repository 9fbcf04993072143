type mapping_id = int

type artifact = { id : mapping_id option; template : Rewrite.Cover.template }

(* A growable array: each push is O(1) amortised, and readers iterate
   the first [len] items without copying. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 4 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

let iter_vec f v =
  for i = 0 to v.len - 1 do
    f v.items.(i)
  done

(* LAV views in catalog order: storage descriptions newest first, then
   mapping views oldest first. Each view carries its rank in that order
   (a storage view the negated count of storage views so far, a mapping
   view its serial), so views gathered from several predicates merge
   back into it. *)
type views = {
  mutable described : (int * artifact) list;
  mapped : (int * artifact) vec;
}

let views_create () = { described = []; mapped = vec () }

type t = {
  mutable peers : Peer.t list;  (* newest first *)
  by_name : (string, Peer.t) Hashtbl.t;
  mutable mappings : (mapping_id * Peer_mapping.t) list;
  (* Reformulation artifacts, extended by each add with the new
     mapping's or description's own. Lookups only read them, so
     concurrent reformulations over one catalog never race. *)
  rules : (string, artifact vec) Hashtbl.t;  (* by head predicate *)
  reading : (string, views) Hashtbl.t;  (* by body predicate *)
  view_counts : int vec;  (* by mapping id *)
  mutable described_count : int;
  mutable mapped_count : int;
  mutable distinguished_views : bool;
  (* Each stored predicate with its identity view. *)
  stored : (string, Rewrite.Cover.template) Hashtbl.t;
  mutable version : int;
}

let create () =
  {
    peers = [];
    by_name = Hashtbl.create 16;
    mappings = [];
    rules = Hashtbl.create 64;
    reading = Hashtbl.create 64;
    view_counts = vec ();
    described_count = 0;
    mapped_count = 0;
    distinguished_views = true;
    stored = Hashtbl.create 16;
    version = 0;
  }

let version t = t.version
let bump t = t.version <- t.version + 1

let mapping_pred id reversed =
  Printf.sprintf "~map%d%s" id (if reversed then "r" else "")

let retarget pred (q : Cq.Query.t) =
  { q with Cq.Query.head = { q.Cq.Query.head with Cq.Atom.pred = pred } }

let artifact id query = { id; template = Rewrite.Cover.compile query }

(* One GAV rule + one LAV view per mapping direction, forward first. *)
let artifacts_of_mapping id mapping =
  match mapping with
  | Peer_mapping.Definitional rule ->
      ([ (rule.Cq.Query.head.Cq.Atom.pred, artifact (Some id) rule) ], [])
  | Peer_mapping.Glav g ->
      let directions =
        match (g.Rewrite.Glav.kind, Rewrite.Glav.reversed g) with
        | Rewrite.Glav.Equality, Some rg -> [ (false, g); (true, rg) ]
        | _ -> [ (false, g) ]
      in
      List.split
        (List.map
           (fun (rev, g) ->
             let pred = mapping_pred id rev in
             ( (pred, artifact (Some id) (retarget pred g.Rewrite.Glav.lhs)),
               artifact (Some id) (retarget pred g.Rewrite.Glav.rhs) ))
           directions)

(* The identity view of a stored predicate: [p(I0, ..) :- p(I0, ..)]. *)
let identity pred arity =
  let args = List.init arity (fun i -> Cq.Term.v ("I" ^ string_of_int i)) in
  Rewrite.Cover.compile
    (Cq.Query.make (Cq.Atom.make pred args) [ Cq.Atom.make pred args ])

let note_stored t pred arity = Hashtbl.replace t.stored pred (identity pred arity)

let add_peer t peer =
  if Hashtbl.mem t.by_name (Peer.name peer) then
    invalid_arg ("Catalog.add_peer: duplicate peer " ^ Peer.name peer);
  t.peers <- peer :: t.peers;
  Hashtbl.replace t.by_name (Peer.name peer) peer;
  List.iter
    (fun rel ->
      let schema = Relalg.Relation.schema rel in
      note_stored t (Relalg.Schema.name schema) (Relalg.Schema.arity schema))
    (Relalg.Database.relations (Peer.stored_db peer));
  bump t

let find_peer t name = Hashtbl.find_opt t.by_name name

let peer t name =
  match find_peer t name with
  | Some p -> p
  | None -> invalid_arg ("Catalog.peer: unknown peer " ^ name)

let peers t = List.rev t.peers

(* File [view] under each predicate its body reads, through [add]
   ([described] or [mapped]). *)
let note_view t add (view : artifact) =
  let q = view.template.Rewrite.Cover.query in
  List.iter
    (fun pred ->
      let views =
        match Hashtbl.find_opt t.reading pred with
        | Some views -> views
        | None ->
            let views = views_create () in
            Hashtbl.replace t.reading pred views;
            views
      in
      add views)
    (Cq.Query.body_preds q);
  if Cq.Query.existential_vars q <> [] then t.distinguished_views <- false

let add_storage t desc =
  let view = desc.Storage_desc.view in
  note_stored t (Storage_desc.stored_pred desc) (Cq.Atom.arity view.Cq.Query.head);
  t.described_count <- t.described_count + 1;
  let entry = (- t.described_count, artifact None view) in
  note_view t (fun views -> views.described <- entry :: views.described) (snd entry);
  bump t

let store_identity t peer ~rel =
  let attrs =
    match Peer.attrs peer rel with
    | Some attrs -> attrs
    | None ->
        invalid_arg
          (Printf.sprintf "Catalog.store_identity: %s has no relation %s"
             (Peer.name peer) rel)
  in
  let relation =
    match Relalg.Database.find_opt (Peer.stored_db peer) (Peer.stored_pred peer rel) with
    | Some r -> r
    | None -> Peer.add_stored peer ~rel ~attrs
  in
  (* [add_storage] notes the stored predicate and bumps the version. *)
  add_storage t (Storage_desc.identity peer ~rel);
  relation

let add_mapping t mapping =
  let id = t.view_counts.len in
  t.mappings <- (id, mapping) :: t.mappings;
  let rules, views = artifacts_of_mapping id mapping in
  List.iter
    (fun (pred, rule) ->
      let known =
        match Hashtbl.find_opt t.rules pred with
        | Some known -> known
        | None ->
            let known = vec () in
            Hashtbl.replace t.rules pred known;
            known
      in
      push known rule)
    rules;
  (* Mapping views go last, the reversed direction before the forward
     one. *)
  List.iter
    (fun view ->
      let entry = (t.mapped_count, view) in
      t.mapped_count <- t.mapped_count + 1;
      note_view t (fun views -> push views.mapped entry) view)
    (List.rev views);
  push t.view_counts (List.length views);
  bump t;
  id

let mappings t = List.rev t.mappings
let mapping_count t = t.view_counts.len

let is_stored t pred = Hashtbl.mem t.stored pred
let identity_view t pred ~arity =
  match Hashtbl.find_opt t.stored pred with
  | Some view when Array.length view.Rewrite.Cover.head.Rewrite.Cover.args = arity -> view
  | Some _ | None -> identity pred arity

let iter_rules t pred f =
  Option.iter (iter_vec f) (Hashtbl.find_opt t.rules pred)

let has_rules t pred = Hashtbl.mem t.rules pred

(* The views of [views] in catalog order. *)
let list_views views =
  let acc = ref [] in
  for i = views.mapped.len - 1 downto 0 do
    acc := snd views.mapped.items.(i) :: !acc
  done;
  List.fold_right (fun (_, v) acc -> v :: acc) views.described !acc

let views_reading t preds =
  let find pred = Hashtbl.find_opt t.reading pred in
  match preds with
  | [ pred ] -> Option.fold ~none:[] ~some:list_views (find pred)
  | preds ->
      (* Several predicates: merge their views back into catalog order,
         each view once. *)
      List.concat_map
        (fun pred ->
          match find pred with
          | None -> []
          | Some views ->
              views.described
              @ List.init views.mapped.len (fun i -> views.mapped.items.(i)))
        preds
      |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd

let view_count t id =
  if id < 0 || id >= t.view_counts.len then
    invalid_arg ("Catalog.view_count: unknown mapping " ^ string_of_int id);
  t.view_counts.items.(id)
let in_view_body t pred = Hashtbl.mem t.reading pred
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
