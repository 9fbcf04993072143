(** Lightweight MANGROVE schemas: "a set of standardized tag names (and
    their allowed nesting structure)" — no integrity constraints
    (Section 2.1). A schema is a forest of tags; top-level tags denote
    entity instances (course, person, talk), nested tags denote their
    fields. *)

type t

val make : name:string -> (string * string option) list -> t
(** [(tag, parent)] pairs; [None] marks a top-level (instance) tag.
    Raises [Invalid_argument] on duplicates, unknown parents or cycles. *)

val name : t -> string
val tags : t -> string list
val instance_tags : t -> string list
val parent_of : t -> string -> string option
val mem : t -> string -> bool

val allowed_under : t -> child:string -> parent:string option -> bool
(** May [child] be annotated inside an annotation tagged [parent]
    ([None] = at top level)? *)

val tag_path : t -> string -> string list
(** Ancestry chain from the top-level tag down to the tag itself, e.g.
    [tag_path s "title" = ["course"; "title"]]. *)

val department : t
(** The built-in department schema the paper's examples revolve around:
    people (phone, email, office), courses (code, title, instructor,
    room, time, day), talks and publications. *)
