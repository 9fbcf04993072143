(** Relation schema: a name plus ordered attribute names. *)

type t = private { name : string; attrs : string array }

val make : string -> string list -> t
(** Raises [Invalid_argument] on duplicate attribute names. *)

val name : t -> string
val attrs : t -> string list
val arity : t -> int

val index_of : t -> string -> int
(** Raises [Not_found] if the attribute is absent. *)

val has_attr : t -> string -> bool
val rename : t -> string -> t
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
