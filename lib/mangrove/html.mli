(** A simplified HTML document model: a URL, a title, and a body tree
    (reusing the XML node type). Annotations address nodes by their
    child-index path from the body root, which survives the in-place
    edits MANGROVE encourages. *)

type t = { url : string; title : string; body : Xmlmodel.Xml.t }

val make : url:string -> title:string -> Xmlmodel.Xml.t -> t

val node_at : t -> int list -> Xmlmodel.Xml.t option
(** [node_at doc path] follows child indexes from the body root; [[]] is
    the body itself. *)

val nodes : t -> (int list * Xmlmodel.Xml.t) list
(** All nodes with their paths, document order. *)

val find_text : t -> string -> (int list * string) list
(** Nodes whose text content contains the given substring (case
    insensitive); the "highlight a portion of the page" gesture. *)

val text_at : t -> int list -> string option
val word_count : t -> int
