(** The PDMS catalog: peers, storage descriptions and peer mappings.
    Exposes the derived artifacts reformulation consumes — GAV rules
    (definitional mappings plus the lhs-side of each GLAV mapping
    through its mapping predicate) and LAV views (storage descriptions
    plus the rhs-side of each GLAV mapping), compiled once as they are
    added. *)

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

(** {2 Artifacts for reformulation}

    The catalog keeps the artifacts reformulation consumes compiled: each
    add extends them with its own mapping's or description's in O(1)
    amortised time, and lookups only read them, so reformulations of one
    catalog never refresh anything and never race. Every rule and view
    is compiled once, into a {!Rewrite.Cover.template} whose variables
    are numbered slots: a LAV step hands MiniCon the views' templates as
    they stand, and a GAV step instantiates a rule's template without
    renaming the rule. *)

type artifact = {
  id : mapping_id option;
      (** the mapping it derives from; [None] for a storage description *)
  template : Rewrite.Cover.template;  (** the rule or view, compiled *)
}

val iter_rules : t -> string -> (artifact -> unit) -> unit
(** The GAV rules whose head predicate is the given one, oldest mapping
    first. *)

val has_rules : t -> string -> bool

val views_reading : t -> string list -> artifact list
(** The LAV views whose body reads one of the predicates, each once, in
    catalog order: storage-description views (newest first), then GLAV
    mapping-predicate views (oldest mapping first, a mapping's reversed
    direction before its forward one). *)

val view_count : t -> mapping_id -> int
(** How many views the mapping contributes (0 for a definitional rule,
    1 for an inclusion, 2 for an equality). Raises [Invalid_argument]
    on an id this catalog did not issue. *)

val identity_view : t -> string -> arity:int -> Rewrite.Cover.template
(** The identity view [p(I0, ..) :- p(I0, ..)] of a predicate, which
    carries a stored atom through MiniCon unchanged: compiled when the
    predicate became stored, at its declared arity, and compiled for
    the call at any other. *)

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
