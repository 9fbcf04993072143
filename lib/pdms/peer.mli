(** A Piazza peer: a name, a peer schema (logical relations others can
    query or map to), and locally stored relations (materialised source
    data). Peer-relation predicates are qualified as ["peer.rel"];
    stored-relation predicates as ["peer.rel!"]. *)

type t

val create : name:string -> schema:(string * string list) list -> t
(** [schema] lists (relation, attributes). *)

val name : t -> string
val schema : t -> (string * string list) list

val attrs : t -> string -> string list option
(** The attributes of a schema relation; [None] for a relation not in
    the schema. *)

val stored_db : t -> Relalg.Database.t

val pred : t -> string -> string
(** Qualified peer-relation predicate; raises [Invalid_argument] for a
    relation not in the schema. *)

val atom : t -> string -> Cq.Term.t list -> Cq.Atom.t
(** Convenience: an atom over a qualified peer relation (arity checked). *)

val add_stored : t -> rel:string -> attrs:string list -> Relalg.Relation.t
(** Declare a stored relation; its predicate is [name.rel!]. *)

val stored_pred : t -> string -> string
val stored_atom : t -> string -> Cq.Term.t list -> Cq.Atom.t
val stored_preds : t -> string list
