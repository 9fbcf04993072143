(** XML trees — Piazza's data model ("general enough to encompass
    relational, hierarchical, or semi-structured data, including marked
    up HTML pages", Section 3.1). *)

type t =
  | Element of string * (string * string) list * t list
  | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

val name : t -> string option
(** Element tag, [None] for text nodes. *)

val attr : t -> string -> string option
val children : t -> t list
val children_named : t -> string -> t list

val text_content : t -> string
(** Concatenated text of all descendant text nodes. *)

val descendants_named : t -> string -> t list
val equal : t -> t -> bool
val to_string : t -> string
(** Indented serialisation. *)

val pp : Format.formatter -> t -> unit
val count_nodes : t -> int
