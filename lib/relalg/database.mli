(** A mutable collection of named relations. *)

type t

val create : unit -> t
val add_relation : t -> Relation.t -> unit
(** Raises [Invalid_argument] if a relation with the same name exists. *)

val create_relation : t -> string -> string list -> Relation.t
(** Declare-and-register shorthand. *)

val find : t -> string -> Relation.t
(** Raises [Not_found]. *)

val find_opt : t -> string -> Relation.t option
val mem : t -> string -> bool
val relations : t -> Relation.t list
val names : t -> string list
val total_tuples : t -> int
val copy : t -> t

val pp : Format.formatter -> t -> unit
