(** Substitutions: finite maps from variable names to terms, with
    triangular (chained) bindings resolved by [walk]. *)

type t

val empty : t
val is_empty : t -> bool
val bindings : t -> (string * Term.t) list
val find : t -> string -> Term.t option

val bind : t -> string -> Term.t -> t
(** Unchecked binding (no consistency check); prefer [unify_term]. *)

val walk : t -> Term.t -> Term.t
(** Resolve a term through binding chains to its representative. *)

val apply_atom : t -> Atom.t -> Atom.t

val unify_term : t -> Term.t -> Term.t -> t option
(** Two-way unification of terms under an existing substitution. *)

val unify_atom : t -> Atom.t -> Atom.t -> t option
(** Unify two atoms (same predicate and arity required). *)

val match_atom : t -> Atom.t -> Atom.t -> t option
val pp : Format.formatter -> t -> unit
