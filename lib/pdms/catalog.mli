(** The PDMS catalog: peers, storage descriptions and peer mappings.
    Exposes the derived artifacts reformulation consumes — GAV rules
    (definitional mappings plus the lhs-side of each GLAV mapping
    through its mapping predicate) and LAV views (storage descriptions
    plus the rhs-side of each GLAV mapping). *)

type mapping_id = int

type t

val create : unit -> t

val add_peer : t -> Peer.t -> unit
(** Raises [Invalid_argument] on duplicate peer names. *)

val peer : t -> string -> Peer.t
(** Raises [Invalid_argument] on an unknown name. *)

val find_peer : t -> string -> Peer.t option
val peers : t -> Peer.t list

val add_storage : t -> Storage_desc.t -> unit

val store_identity : t -> Peer.t -> rel:string -> Relalg.Relation.t
(** Shorthand: declare the stored relation, register the identity
    storage description, and return the relation to load data into.
    Raises [Invalid_argument] for a relation not in the peer's
    schema. *)

val add_mapping : t -> Peer_mapping.t -> mapping_id

val mappings : t -> (mapping_id * Peer_mapping.t) list
val mapping_count : t -> int

val is_stored : t -> string -> bool
(** Is the predicate a stored relation of some peer? *)

val version : t -> int
(** Moves with every {!add_peer}, {!add_storage}, {!store_identity} and
    {!add_mapping}, and with nothing else: a reformulation made at one
    version holds until it moves.  Data updates leave it alone. *)

(** {2 Artifacts for reformulation} *)

val rules_for : t -> string -> (mapping_id option * Cq.Query.t) list
(** GAV rules whose head predicate is the given one. The id is the
    mapping the rule derives from ([None] for none — currently unused). *)

val has_rules : t -> string -> bool

val views : t -> (mapping_id option * Cq.Query.t) list
(** All LAV views: storage-description views (id [None]) and GLAV
    mapping-predicate views (their mapping id). *)

val in_view_body : t -> string -> bool
(** Does the predicate occur in the body of some view? Then a GAV rule
    for it is not its only source. *)

val distinguished_views : t -> bool
(** Does every variable of every view occur in the view's head? Then no
    query variable can map to an existential view variable, so MiniCon
    never has to cover two subgoals with one view match, and
    reformulation searches each subgoal on its own. *)

val global_db : t -> Relalg.Database.t
(** Union of all peers' stored relations (shared relation objects, not
    copies — inserts through peers are visible). *)
