(** Conjunctive queries [q(x̄) :- a1, ..., an]. *)

type t = { head : Atom.t; body : Atom.t list }

val make : Atom.t -> Atom.t list -> t

val vars : t -> string list
(** Distinct variables of head and body, in first-occurrence order. *)

val head_vars : t -> string list
(** Distinguished variables. *)

val body_vars : t -> string list
(** Distinct variables of the body, in first-occurrence order. *)

val existential_vars : t -> string list
(** Body variables not appearing in the head. *)

val is_safe : t -> bool
(** Every head variable appears in the body. *)

val apply : Subst.t -> t -> t

val freshen : suffix:string -> t -> t
(** Rename every variable [x] to [x ^ suffix]; used to keep variable
    namespaces of different queries disjoint. *)

val rename_preds : (string -> string) -> t -> t
val body_preds : t -> string list
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val size : t -> int
(** Number of body atoms. *)
