(** A REVERE node (Figure 1): one organisation's deployment of the three
    components — a MANGROVE repository fed by annotated pages, a Piazza
    peer publishing the structured data, and handles to the corpus-based
    advisors. The [sync] function is the arrow in Figure 1 from the
    annotated-HTML store to the peer's stored relations. *)

type t

val create :
  name:string ->
  ?schema:Mangrove.Lightweight_schema.t ->
  peer_schema:(string * string list) list ->
  unit ->
  t
(** Default MANGROVE schema: the department schema. *)

val name : t -> string
val repository : t -> Mangrove.Repository.t
val peer : t -> Pdms.Peer.t

val annotator : t -> Mangrove.Html.t -> Mangrove.Annotator.t
(** Start the annotation tool on a page, against this node's schema. *)

val publish : t -> Mangrove.Annotator.t -> int
(** Publish into this node's repository. *)

val sync :
  t ->
  catalog:Pdms.Catalog.t ->
  rel:string ->
  tag:string ->
  fields:string list ->
  int
(** Export repository entities of [tag] into the peer's stored relation
    [rel] (declared with identity storage description on first use):
    one tuple per entity, columns = first published value per field
    ([Null] when absent). Returns the number of tuples inserted. The
    peer must already be registered in the catalog. *)

val schema_model_of_peer : Pdms.Peer.t -> rel:string -> Corpus.Schema_model.t
(** The peer relation as a corpus schema, sample values drawn from the
    stored data — what the MatchingAdvisor consumes when a new
    university joins. *)
